"""On-disk formats: coordinate TSV, edge TSV, and the analysis report.

Coordinate files carry one header line
``# hrg v1 n=<n> alpha=<a> C=<c> R=<r> seed=<s> mode=<fixed|poisson>``
followed by ``<id>\\t<r>\\t<phi>`` rows with 17 significant digits, ids
0..count-1 in sampling order, so floats round-trip exactly. Edge files
hold one ``<min_id>\\t<max_id>`` row per edge, sorted by that pair, with
no header.
"""

from __future__ import annotations

import io
import json
import math
import warnings
from itertools import chain
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

# Rows the writers format per ``write``: bounds the text held at once.
WRITE_BLOCK = 1 << 16

_COORD_ROW = np.dtype([("id", np.int64), ("r", np.float64), ("phi", np.float64)])


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
    for start in range(0, len(ps), WRITE_BLOCK):
        stop = min(start + WRITE_BLOCK, len(ps))
        rows = zip(range(start, stop), ps.r[start:stop].tolist(), ps.phi[start:stop].tolist())
        stream.write("%d\t%.17g\t%.17g\n" * (stop - start) % tuple(chain.from_iterable(rows)))


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
    stream, start, rows = _load_rows(stream, _COORD_ROW, "\t", ndmin=1)
    if (
        rows is not None
        and np.array_equal(rows["id"], np.arange(rows.size))
        # the domain test of _parse_coord_lines, also false for NaN
        and np.all((rows["r"] >= 0.0) & (rows["r"] <= params.R))
        and np.all((rows["phi"] >= 0.0) & (rows["phi"] < TWO_PI))
    ):
        radii, angles = rows["r"], rows["phi"]
    else:
        stream.seek(start)
        radii, angles = _parse_coord_lines(stream, params.R)
    try:
        return PointSet(params, radii, angles, mode, seed)
    except ValueError as exc:
        raise DataFormatError(str(exc), 1) from None


def _parse_coord_lines(stream: TextIO, R: float) -> tuple[np.ndarray, np.ndarray]:
    """Line-by-line coordinate rows after the header; the validator of
    record, whose error names the first offending line."""
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
        if not (0.0 <= r <= R and 0.0 <= phi < TWO_PI):  # also false for NaN
            raise DataFormatError(f"point {idx} ({r!r}, {phi!r}) not in [0, R] x [0, 2pi)", line_no)
        radii.append(r)
        angles.append(phi)
    return np.asarray(radii, dtype=float), np.asarray(angles, dtype=float)


def write_edges(stream: TextIO, g: Graph) -> None:
    for start in range(0, g.m, WRITE_BLOCK):
        block = g.edges[start : start + WRITE_BLOCK]
        stream.write("%d\t%d\n" * len(block) % tuple(block.ravel().tolist()))


def read_edges(stream: TextIO, point_count: int) -> np.ndarray:
    """Parse and validate an edge list against a known point count.

    Rejects references to missing ids, self-loops, and duplicate edges;
    the error names the offending line. Rows come back in file order as
    (min id, max id).
    """
    stream, start, rows = _load_rows(stream, np.int64, None, ndmin=2)
    if rows is not None and rows.shape[1] == 2:
        lo, hi = np.minimum(rows[:, 0], rows[:, 1]), np.maximum(rows[:, 0], rows[:, 1])
        if lo.min() >= 0 and hi.max() < point_count and np.all(lo != hi):
            keys = np.sort(lo * point_count + hi)
            if not np.any(keys[1:] == keys[:-1]):
                return np.column_stack((lo, hi))
    stream.seek(start)
    return _parse_edge_lines(stream, point_count)


def _parse_edge_lines(stream: TextIO, point_count: int) -> np.ndarray:
    """Line-by-line edge rows; the validator of record, whose error names
    the first offending line."""
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


def _load_rows(
    stream: TextIO, dtype, delimiter: str | None, ndmin: int
) -> tuple[TextIO, int, np.ndarray | None]:
    """Parse the rest of ``stream`` with one ``np.loadtxt``.

    Returns ``(stream, start, rows)``. ``stream`` is the given one, or an
    in-memory copy of its rest when it cannot seek (as a pipe cannot);
    seeking it to ``start`` lets the line parser read the rows again.
    ``rows`` is None when only blank lines remain or numpy refuses the
    text. numpy accepts a subset of what ``int()``/``float()`` accept (not
    ``1_0`` or non-ASCII digits) and parses it to the same values. A
    warning counts as a refusal: numpy 1.x reads ``1.0`` into an int
    column with only a DeprecationWarning.
    """
    if not stream.seekable():
        stream = io.StringIO(stream.read())
    start = stream.tell()
    # no rows: skip numpy, which would warn "input contained no data"
    if not any(line.strip() for line in iter(stream.readline, "")):
        return stream, start, None
    stream.seek(start)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            rows = np.loadtxt(stream, dtype=dtype, delimiter=delimiter, comments=None, ndmin=ndmin)
        except (ValueError, Warning):
            rows = None
    return stream, start, rows


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
