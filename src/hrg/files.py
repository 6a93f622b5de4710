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
from itertools import chain, islice
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

# The data rows of each TSV format: dtype, delimiter (None: any whitespace),
# the layout a column-count error names, and the number of the first line.
_COORD_ROW = np.dtype([("id", np.int64), ("r", np.float64), ("phi", np.float64)])
_COORD_ROWS = (_COORD_ROW, "\t", "<id>\\t<r>\\t<phi>", 2)
_EDGE_ROWS = (np.dtype([("a", np.int64), ("b", np.int64)]), None, "<id>\\t<id>", 1)


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
    (ids, radii, angles), refusal, line_of = _load_rows(stream, _COORD_ROWS)
    unsequenced = ids != np.arange(ids.size)
    # the domain test, also true for NaN
    outside = ~((radii >= 0.0) & (radii <= params.R) & (angles >= 0.0) & (angles < TWO_PI))
    bad = unsequenced | outside
    if bad.any():
        i = int(bad.argmax())
        if unsequenced[i]:
            raise DataFormatError(f"ids must be sequential from 0, got {ids[i]}", line_of(i))
        r, phi = float(radii[i]), float(angles[i])
        raise DataFormatError(f"point {i} ({r!r}, {phi!r}) not in [0, R] x [0, 2pi)", line_of(i))
    if refusal is not None:
        raise refusal
    try:
        return PointSet(params, radii, angles, mode, seed)
    except ValueError as exc:
        raise DataFormatError(str(exc), 1) from None


def write_edges(stream: TextIO, g: Graph) -> None:
    for start in range(0, g.m, WRITE_BLOCK):
        block = g.edges[start : start + WRITE_BLOCK]
        stream.write("%d\t%d\n" * len(block) % tuple(block.ravel().tolist()))


def read_edges(stream: TextIO, point_count: int) -> np.ndarray:
    """Parse and validate an edge list against a known point count.

    Rejects references to missing ids, self-loops, and duplicate edges;
    the error names the first offending line. Rows come back in file order
    as (min id, max id).
    """
    (a, b), refusal, line_of = _load_rows(stream, _EDGE_ROWS)
    a_missing, b_missing = ((ids < 0) | (ids >= point_count) for ids in (a, b))
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    loop = lo == hi
    bad = a_missing | b_missing | loop
    keys = lo * point_count + hi
    ordered = np.sort(keys)
    repeats = ordered[1:] == ordered[:-1]
    if repeats.any():
        # a stable sort keeps equal keys in file order: mark each repeat
        bad[np.argsort(keys, kind="stable")[1:][repeats]] = True
    if bad.any():
        i = int(bad.argmax())
        if a_missing[i] or b_missing[i]:
            node = a[i] if a_missing[i] else b[i]
            message = f"edge references missing id {node} (have {point_count} points)"
        elif loop[i]:
            message = f"self-loop at id {a[i]}"
        else:
            message = f"duplicate edge {(int(lo[i]), int(hi[i]))}"
        raise DataFormatError(message, line_of(i))
    if refusal is not None:
        raise refusal
    return np.column_stack((lo, hi)).astype(np.int64, copy=False)


def _load_rows(stream: TextIO, row_format: tuple):
    """The rows of the rest of ``stream``, one array per field of the
    format's dtype.

    Returns ``(columns, refusal, line_of)`` and checks no rule. One
    ``np.loadtxt`` reads the text if numpy takes all of it: numpy takes a
    subset of what ``int()``/``float()`` take (not ``1_0`` or non-ASCII
    digits), to the same values, and a warning counts as a refusal (numpy
    1.x reads ``1.0`` into an int column with a DeprecationWarning). Else
    :func:`_convert_lines` reads the rows, and ``refusal`` is the error of
    the line it stopped at, for the reader to raise if no earlier row fails
    a rule. ``line_of(i)`` reads the stream again for the number of row
    i's line. A pipe is copied into memory first.
    """
    dtype, delimiter, _, first_line = row_format
    if not stream.seekable():
        stream = io.StringIO(stream.read())
    start = stream.tell()

    def line_of(row: int) -> int:
        stream.seek(start)
        numbered = (no for no, line in enumerate(stream, first_line) if line.strip())
        return next(islice(numbered, row, None))

    rows, refusal = np.empty(0, dtype), None
    # no rows: skip numpy, which would warn "input contained no data"
    if any(line.strip() for line in iter(stream.readline, "")):
        stream.seek(start)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                rows = np.loadtxt(stream, dtype=dtype, delimiter=delimiter, comments=None, ndmin=1)
        except (ValueError, Warning):
            stream.seek(start)
            rows, refusal = _convert_lines(stream, row_format)
    return [rows[name] for name in dtype.names], refusal, line_of


def _convert_lines(stream: TextIO, row_format: tuple) -> tuple[np.ndarray, DataFormatError | None]:
    """Rows of the non-blank lines up to the first one whose column count
    or ``int()``/``float()`` fails, and that line's error (None if none
    fails). Int fields hold Python ints, exact beyond int64."""
    dtype, delimiter, layout, first_line = row_format
    kinds = [int if dtype[name].kind == "i" else float for name in dtype.names]
    values, refusal = [], None
    for line_no, line in enumerate(stream, first_line):
        if not line.strip():
            continue
        parts = line.split(delimiter)
        try:
            if len(parts) != len(kinds):
                raise ValueError(f"expected '{layout}'")
            values.append(tuple(kind(part) for kind, part in zip(kinds, parts)))
        except ValueError as exc:
            refusal = DataFormatError(str(exc), line_no)
            break
    exact = [(name, object if kind is int else float) for name, kind in zip(dtype.names, kinds)]
    return np.array(values, dtype=exact), refusal


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
            "inner_count": bands.inner_count,
            "outer_count": len(ps) - bands.inner_count,
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
