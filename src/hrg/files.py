"""On-disk formats: coordinate TSV, edge TSV, and the analysis report.

Coordinate files carry one header line
``# hrg v1 n=<n> alpha=<a> C=<c> R=<r> seed=<s> mode=<fixed|poisson>``
followed by ``<id>\\t<r>\\t<phi>`` rows with 17 significant digits, ids
0..count-1 in sampling order, so floats round-trip exactly. Edge files
hold one ``<min_id>\\t<max_id>`` row per edge, sorted by that pair, with
no header.

The writers write byte for byte what ``"%d\\t%.17g\\t%.17g\\n"`` and
``"%d\\t%d\\n"`` format, with no Python step per row: a block of rows is
one uint8 matrix with a row per character position, NUL where a line is
shorter, and the block's text is its transpose's bytes without the NULs.
Digits come from integer arithmetic in 9-digit chunks, the floats' from
their exactly rounded 17-digit significands (:func:`_significands`). A
row holding a float that ``%.17g`` prints as ``0`` or with an exponent
(r = 0, angles below 1e-4), or one of 1e5 or more, is formatted by ``%``.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import warnings
from itertools import islice
from typing import TextIO

import numpy as np

from .analysis import TAIL_FLOOR, ComponentStructure, analyze_graph
from .geometry import TWO_PI, ModelParams
from .graphgen import Graph
from .sampling import MODE_FIXED, MODE_POISSON, PointSet

__all__ = [
    "DataFormatError",
    "write_coords",
    "read_coords",
    "fixed_point_count",
    "write_edges",
    "read_edges",
    "build_report",
    "dump_report",
]

REPORT_SCHEMA = 1

# Rows the writers format per ``write``: bounds the text held at once.
WRITE_BLOCK = 1 << 16

# Bytes of the shortest coordinate row, ``0\t0\t0\n``.
MIN_COORD_ROW = 6

# The data rows of each TSV format: dtype, delimiter (None: any whitespace),
# the layout a column-count error names, and the number of the first line.
_COORD_ROW = np.dtype([("id", np.int64), ("r", np.float64), ("phi", np.float64)])
_COORD_ROWS = (_COORD_ROW, "\t", "<id>\\t<r>\\t<phi>", 2)
_EDGE_ROWS = (np.dtype([("a", np.int64), ("b", np.int64)]), None, "<id>\\t<id>", 1)


class DataFormatError(Exception):
    """Inconsistent or malformed data file; carries the offending line."""

    def __init__(self, message: str, line_number: int):
        super().__init__(f"line {line_number}: {message}")
        self.message = message
        self.line_number = line_number

    def __reduce__(self):
        # rebuilt from both arguments, so it survives pickling, such as a
        # forked check's pipe
        return type(self), (self.message, self.line_number)


def write_coords(stream: TextIO, ps: PointSet) -> None:
    """Write the header and ``%d\\t%.17g\\t%.17g\\n`` rows, ``WRITE_BLOCK``
    rows per ``write``. Each block is one character matrix; rows holding a
    value outside fixed notation (r = 0, angles below 1e-4) are formatted
    by ``%``."""
    p = ps.params
    stream.write(
        f"# hrg v1 n={p.n} alpha={p.alpha!r} C={p.C!r} R={p.R!r} "
        f"seed={ps.seed} mode={ps.mode}\n"
    )
    for start in range(0, len(ps), WRITE_BLOCK):
        stop = min(start + WRITE_BLOCK, len(ps))
        r, phi = ps.r[start:stop], ps.phi[start:stop]
        (r_cells, r_slow), (phi_cells, phi_slow) = _float_cells(r), _float_cells(phi)
        cells = _join_fields(_int_cells(np.arange(start, stop)), r_cells, phi_cells)
        slow = np.flatnonzero(r_slow | phi_slow).tolist()
        stream.write(_text(cells, {i: "%d\t%.17g\t%.17g\n" % (start + i, r[i], phi[i]) for i in slow}))


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
    with _decoded(stream):
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


def fixed_point_count(stream: TextIO) -> int | None:
    """The point count that a coordinate file's header fixes, read ahead
    from ``stream``, which is then back where it was.

    None for a stream that cannot seek (a pipe), a Poisson header, a
    header that :func:`read_coords` refuses, and a count of more rows of
    ``MIN_COORD_ROW`` bytes than the file holds, so that a header alone
    cannot make the reader allocate beyond the file's size."""
    if not stream.seekable():
        return None
    start = stream.tell()
    try:
        size = os.fstat(stream.fileno()).st_size
        params, _, mode = _parse_header(stream.readline())
    except (OSError, ValueError, DataFormatError):  # a decoding error is a ValueError
        return None
    finally:
        stream.seek(start)
    return params.n if mode == MODE_FIXED and MIN_COORD_ROW * params.n <= size else None


def write_edges(stream: TextIO, g: Graph) -> None:
    """Write the canonical edges of :meth:`Graph.edges`, sorted, one
    ``<min id>\\t<max id>`` row each, derived and formatted per block of
    nodes: a block starts at the last node boundary at or below each
    multiple of ``WRITE_BLOCK`` half-edges, so it holds at most
    ``WRITE_BLOCK`` rows beyond those of its first node. A block's
    ``%d\\t%d\\n`` rows are formatted from its two id arrays as one
    character matrix (:func:`_int_cells`); no row goes through ``%``."""
    ends = np.cumsum(g.degrees)
    cuts = np.searchsorted(ends, range(0, 2 * g.m, WRITE_BLOCK), side="right").tolist()
    for lo, hi in zip(cuts, cuts[1:] + [g.n]):
        small, large = g.edges(lo, hi)
        stream.write(_text(_join_fields(_int_cells(small), _int_cells(large)), {}))


# Exact doubles 10**0 .. 10**22, and Dekker's splitting constant 2**27 + 1
_POW10 = np.array([float(10**i) for i in range(23)])
_SPLIT = float(2**27 + 1)
_CHUNK = 10**9
_TAB, _NL, _DOT, _ZERO = 9, 10, 46, 48


def _int_cells(values: np.ndarray) -> np.ndarray:
    """``%d`` of non-negative int64 ``values`` as character columns: a
    (width, len(values)) uint8 matrix, right-aligned, NUL on the left."""
    width = len(str(int(values.max(initial=0))))
    chunks, rest = [], values
    for _ in range((width - 1) // 9):
        rest, low = np.divmod(rest, _CHUNK)
        chunks.append(low)
    cells = _digit_rows(chunks + [rest], width)
    for row in range(width - 1):
        cells[row] *= values >= 10 ** (width - 1 - row)
    return cells


def _digit_rows(chunks: list[np.ndarray], width: int) -> np.ndarray:
    """The last ``width`` decimal digits, most significant first, of the
    numbers whose base-10**9 digits are ``chunks`` (least significant
    first, each below 10**9), as rows of ASCII characters. Each chunk is
    taken apart in uint32."""
    cells = np.empty((width, chunks[0].size), np.uint8)
    row = width
    for chunk in chunks:
        chunk = chunk.astype(np.uint32)
        for _ in range(min(9, row)):
            row -= 1
            quotient = chunk // 10
            cells[row] = chunk - quotient * 10
            chunk = quotient
    cells += _ZERO
    return cells


def _two_product(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dekker's TwoProduct: ``p = fl(a * b)`` and ``e`` with ``a * b = p + e``
    exactly, barring overflow and underflow."""
    p = a * b
    a_hi, a_lo = _split(a)
    b_hi, b_lo = _split(b)
    return p, ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp's split of doubles into halves of 26 significant bits."""
    c = a * _SPLIT
    hi = c - (c - a)
    return hi, a - hi


def _significands(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The 17 significant digits ``%.17g`` prints of each ``x``.

    Returns ``(digits, exponents, slow)``: rounded half to even, x is
    ``digits * 10**(exponents - 16)`` with ``10**16 <= digits < 10**17``.
    ``slow`` marks the values outside [1e-4, 1e5) after rounding (0 and NaN
    among them); their digits and exponents mean nothing. The exponent is
    guessed from ``log10`` and corrected until the exact product
    ``x * 10**(16 - k)`` lies in [10**16, 10**17), so ``log10`` cannot
    change a digit.
    """
    slow = ~((x >= 1e-5) & (x < 1e5))
    x = np.where(slow, 1.0, x)
    k = np.floor(np.log10(x)).astype(np.int64)
    digits = np.empty_like(k)
    todo = np.arange(x.size)
    while todo.size:
        # -6 <= k <= 5 here, and 10**(16 - k) is an exact double
        p, e = _two_product(x[todo], _POW10[16 - k[todo]])
        low = (p < 1e16) | ((p == 1e16) & (e < 0))
        high = (p > 1e17) | ((p == 1e17) & (e >= 0))
        # p >= 2**53 is an even integer where neither holds, so rounding
        # p + e half to even is p + rint(e)
        digits[todo] = p.astype(np.int64) + np.rint(e).astype(np.int64)
        k[todo] += high.astype(np.int64) - low
        todo = todo[low | high]
    # No rounding carries to 10**17: the powers of ten 10**-4 .. 10**-1 are
    # rounded up to doubles, and the others are exact, so no double lies
    # within half a unit of the 17th digit below one.
    slow |= (k < -4) | (k > 4)
    return digits, k, slow


def _float_cells(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``%.17g`` of ``x`` as character columns with one column for the
    decimal point, NUL before the first digit and after the last; and the
    mask of the values :func:`_significands` leaves to ``%``.

    With F fraction columns, the digits are those of the integer
    ``digits * 10**(F - 16 + exponent)``, which has at most 25."""
    digits, k, slow = _significands(x)
    digits[slow], k[slow] = 10**16, 0
    top, bottom = max(int(k.max(initial=0)), 0), int(k.min(initial=0))
    whole, frac = top + 1, 16 - bottom
    high, low = np.divmod(digits, _CHUNK)
    shift = 10 ** (k - bottom)  # at most 10**8
    carry, low = np.divmod(low * shift, _CHUNK)
    high, middle = np.divmod(high * shift + carry, _CHUNK)
    cells = _digit_rows([low, middle, high], whole + frac)
    for row in range(whole - 1):  # blank leading zeros of the integer part
        cells[row] *= k >= whole - 1 - row
    last = np.zeros(x.size, np.int64)  # the last nonzero fraction digit
    for place in range(1, frac + 1):
        last[cells[whole - 1 + place] != _ZERO] = place
    for place in range(1, frac + 1):
        cells[whole - 1 + place] *= last >= place
    point = np.where(last > 0, _DOT, 0).astype(np.uint8)
    return np.concatenate((cells[:whole], point[None], cells[whole:])), slow


def _join_fields(*fields: np.ndarray) -> np.ndarray:
    """Character columns of rows: ``fields`` joined by tabs, ended by a
    newline."""
    count = fields[0].shape[1]
    seps = [np.full((1, count), sep, np.uint8) for sep in [_TAB] * (len(fields) - 1) + [_NL]]
    return np.concatenate([part for pair in zip(fields, seps) for part in pair])


def _text(cells: np.ndarray, rows: dict[int, str]) -> str:
    """The rows that the character columns ``cells`` hold, without their
    NUL characters, with each row i of ``rows`` replaced by its text."""
    pieces, start = [], 0
    for i in sorted(rows) + [cells.shape[1]]:
        pieces.append(cells[:, start:i].T.tobytes().translate(None, b"\0").decode("ascii"))
        pieces.append(rows.get(i, ""))
        start = i + 1
    return "".join(pieces)


def read_edges(stream: TextIO, point_count: int) -> tuple[np.ndarray, np.ndarray]:
    """Parse and validate an edge list against a known point count.

    Rejects references to missing ids, self-loops, and duplicate edges;
    the error names the first offending line. The edges come back in file
    order as two int64 arrays, (min ids, max ids), which
    :meth:`Graph.from_edge_array` takes as they are.
    """
    with _decoded(stream):
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
    # the fallback parser gives object columns, e.g. for ``1_0``
    return lo.astype(np.int64, copy=False), hi.astype(np.int64, copy=False)


@contextlib.contextmanager
def _decoded(stream: TextIO):
    """Turns a ``UnicodeDecodeError`` while reading ``stream`` into a
    ``DataFormatError`` naming the first line of its bytes, counted from the
    start of the file, that does not decode on its own. Text mode decodes
    8 KB chunks, so the line being read when the error surfaced need not
    be that line. A stream whose bytes cannot be read again (a pipe) names
    line 1, which is at or before that line."""
    try:
        yield
    except UnicodeDecodeError as exc:
        line_no = 1
        raw = getattr(stream, "buffer", None)
        if raw is not None and raw.seekable():
            raw.seek(0)
            for number, line in enumerate(raw, 1):
                try:
                    line.decode(exc.encoding)
                except UnicodeDecodeError as bad:
                    exc, line_no = bad, number
                    break
        raise DataFormatError(f"not valid {exc.encoding} text ({exc.reason})", line_no) from None


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


def build_report(
    g: Graph, inner_c: float = 1.0, structure: ComponentStructure | None = None
) -> dict:
    """Map :func:`~hrg.analysis.analyze_graph` onto the report's frozen key
    names (schema 1); ``structure`` as in
    :func:`~hrg.analysis.component_report`."""
    ps = g.pointset
    params = ps.params
    result = analyze_graph(g, inner_c, structure)
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
            "x_min": TAIL_FLOOR,
            "tail_size": degrees.tail_size,
            "reliable": degrees.reliable,
            "beta_theory": params.degree_exponent,
            "delta_theory": _finite_or_none(params.mean_degree),
            "histogram": degrees.histogram.tolist(),
        },
        "bands": {
            "inner_c": inner_c,
            "inner_count": bands.inner_count,
            "outer_count": len(ps) - bands.inner_count,
            "sectors": params.n,
            "max_empty_sector_run": bands.max_empty_sector_run,
            "window_k": bands.window_k,
            "max_nodes_in_window": bands.max_nodes_in_window,
        },
        "checks": {
            "core_size": comps.core_size,
            "core_clique": comps.core_clique,
            "core_in_giant": comps.core_in_giant,
        },
    }


def dump_report(report: dict, stream: TextIO) -> None:
    json.dump(report, stream, indent=2, allow_nan=False)
    stream.write("\n")
