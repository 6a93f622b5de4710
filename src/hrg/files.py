"""On-disk formats: coordinate TSV, edge TSV, and the analysis report.

Coordinate files carry one header line
``# hrg v1 n=<n> alpha=<a> C=<c> R=<r> seed=<s> mode=<fixed|poisson>``
followed by ``<id>\\t<r>\\t<phi>`` rows with 17 significant digits, ids
0..count-1 in sampling order, so floats round-trip exactly. Edge files
hold one ``<min_id>\\t<max_id>`` row per edge, sorted by that pair, with
no header.
"""

from __future__ import annotations

import json
import math
from typing import TextIO

import numpy as np

from .analysis import analyze_graph
from .geometry import TWO_PI, ModelParams
from .graphgen import Graph
from .sampling import MODE_FIXED, MODE_POISSON, PointSet

__all__ = [
    "DataFormatError",
    "write_coords",
    "read_coords",
    "write_edges",
    "read_edges",
    "build_report",
    "dump_report",
]

REPORT_SCHEMA = 1


class DataFormatError(Exception):
    """Inconsistent or malformed data file; carries the offending line."""

    def __init__(self, message: str, line_number: int):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


def write_coords(stream: TextIO, ps: PointSet) -> None:
    p = ps.params
    stream.write(
        f"# hrg v1 n={p.n} alpha={p.alpha!r} C={p.C!r} R={p.R!r} "
        f"seed={ps.seed} mode={ps.mode}\n"
    )
    for i in range(len(ps)):
        stream.write(f"{i}\t{ps.r[i]:.17g}\t{ps.phi[i]:.17g}\n")


def _parse_header(line: str) -> tuple[ModelParams, int, str]:
    tokens = line.strip().split()
    if tokens[:3] != ["#", "hrg", "v1"]:
        raise DataFormatError("expected '# hrg v1' coordinate header", 1)
    fields = {}
    for tok in tokens[3:]:
        key, _, val = tok.partition("=")
        fields[key] = val
    try:
        n = int(fields["n"])
        alpha = float(fields["alpha"])
        c_param = float(fields["C"])
        radius = float(fields["R"])
        seed = int(fields["seed"])
        mode = fields["mode"]
        params = ModelParams(n=n, alpha=alpha, C=c_param)
    except (KeyError, ValueError) as exc:
        raise DataFormatError(f"bad header field ({exc})", 1) from None
    if mode not in (MODE_FIXED, MODE_POISSON):
        raise DataFormatError(f"unknown mode {mode!r}", 1)
    if not math.isclose(params.R, radius, rel_tol=0.0, abs_tol=1e-9):
        raise DataFormatError(
            f"header R={radius} does not match 2*ln(n)+C={params.R}", 1
        )
    return params, seed, mode


def read_coords(stream: TextIO) -> PointSet:
    header = stream.readline()
    if not header:
        raise DataFormatError("empty coordinate file", 1)
    params, seed, mode = _parse_header(header)
    radii = []
    angles = []
    for line_no, line in enumerate(stream, start=2):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise DataFormatError("expected '<id>\\t<r>\\t<phi>'", line_no)
        try:
            idx, r, phi = int(parts[0]), float(parts[1]), float(parts[2])
        except ValueError as exc:
            raise DataFormatError(str(exc), line_no) from None
        if idx != len(radii):
            raise DataFormatError(f"ids must be sequential from 0, got {idx}", line_no)
        if not (0.0 <= r <= params.R and 0.0 <= phi < TWO_PI):  # also false for NaN
            raise DataFormatError(f"point {idx} ({r!r}, {phi!r}) not in [0, R] x [0, 2pi)", line_no)
        radii.append(r)
        angles.append(phi)
    try:
        return PointSet(
            params,
            np.asarray(radii, dtype=float),
            np.asarray(angles, dtype=float),
            mode,
            seed,
        )
    except ValueError as exc:
        raise DataFormatError(str(exc), 1) from None


def write_edges(stream: TextIO, g: Graph) -> None:
    for a, b in g.edges:
        stream.write(f"{a}\t{b}\n")


def read_edges(stream: TextIO, point_count: int) -> np.ndarray:
    """Parse and validate an edge list against a known point count.

    Rejects references to missing ids, self-loops, and duplicate edges;
    the error names the offending line.
    """
    seen = set()
    rows = []
    for line_no, line in enumerate(stream, start=1):
        if not line.strip():
            continue
        parts = line.split()
        if len(parts) != 2:
            raise DataFormatError("expected '<id>\\t<id>'", line_no)
        try:
            a, b = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise DataFormatError(str(exc), line_no) from None
        for node in (a, b):
            if node < 0 or node >= point_count:
                raise DataFormatError(
                    f"edge references missing id {node} (have {point_count} points)",
                    line_no,
                )
        if a == b:
            raise DataFormatError(f"self-loop at id {a}", line_no)
        key = (min(a, b), max(a, b))
        if key in seen:
            raise DataFormatError(f"duplicate edge {key}", line_no)
        seen.add(key)
        rows.append(key)
    if not rows:
        return np.empty((0, 2), dtype=np.int64)
    return np.asarray(rows, dtype=np.int64)


def _finite_or_none(x: float):
    return x if math.isfinite(x) else None


def build_report(g: Graph, inner_c: float = 1.0) -> dict:
    """Map :func:`~hrg.analysis.analyze_graph` onto the report's frozen key
    names (schema 1)."""
    ps = g.pointset
    params = ps.params
    result = analyze_graph(g, inner_c)
    comps, degrees, bands = result.components, result.degrees, result.bands
    return {
        "schema": REPORT_SCHEMA,
        "model": {
            "n": params.n,
            "alpha": params.alpha,
            "C": params.C,
            "R": params.R,
            "seed": ps.seed,
            "mode": ps.mode,
            "points": len(ps),
        },
        "graph": {
            "m": g.m,
            "mean_degree": degrees.mean_degree,
        },
        "components": {
            "count": len(comps.sizes),
            "giant_id": comps.giant_label,
            "giant_size": comps.giant_size,
            "second_size": comps.second_size,
            "giant_diameter": comps.giant_diameter,
            "max_component_diameter": comps.max_component_diameter,
            "sizes": comps.sizes,
        },
        "degrees": {
            "mean": degrees.mean_degree,
            "beta_hat": _finite_or_none(degrees.beta_hat),
            "x_min": degrees.x_min,
            "tail_size": degrees.tail_size,
            "reliable": degrees.reliable,
            "beta_theory": degrees.beta_theory,
            "delta_theory": _finite_or_none(degrees.delta_theory),
            "histogram": degrees.histogram.tolist(),
        },
        "bands": {
            "inner_c": bands.inner_c,
            "inner_count": int(np.count_nonzero(bands.inner_mask)),
            "outer_count": int(len(ps) - np.count_nonzero(bands.inner_mask)),
            "sectors": bands.sectors,
            "max_empty_sector_run": bands.max_empty_sector_run,
            "window_k": bands.window_k,
            "max_nodes_in_window": bands.max_nodes_in_window,
        },
        "checks": {
            "core_size": result.core_size,
            "core_clique": result.core_clique,
            "core_in_giant": result.core_in_giant,
        },
    }


def dump_report(report: dict, stream: TextIO) -> None:
    json.dump(report, stream, indent=2, allow_nan=False)
    stream.write("\n")
