"""Differential tests of the TSV readers against the line-by-line parsers
they replaced: identical arrays on valid files, the same error and line
number on malformed ones."""

import io
import math

import numpy as np
import pytest

from hrg.files import DataFormatError, _parse_header, read_coords, read_edges, write_coords
from hrg.geometry import TWO_PI, ModelParams
from hrg.sampling import MODE_FIXED, PointSet

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")
given = hypothesis.given

EXAMPLES = hypothesis.settings(max_examples=150, deadline=None, derandomize=True, database=None)


def oracle_read_edges(stream, point_count):
    """The edge parser as it stood before the array readers, verbatim."""
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


def oracle_read_coords(stream):
    """The coordinate parser as it stood before the array readers, verbatim."""
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


def outcome(reader, text, *args):
    """What ``reader`` makes of ``text``: its array(s) or its error."""
    try:
        result = reader(io.StringIO(text), *args)
    except DataFormatError as exc:
        return ("error", exc.line_number, str(exc))
    if isinstance(result, PointSet):
        return ("points", result.r.tobytes(), result.phi.tobytes(), result.params, result.seed)
    return ("edges", result.dtype, result.shape, result.tobytes())


ARABIC_INDIC = str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")

# Spellings of an id that int() accepts. numpy parses the first three; the
# others send the reader to its int()/float() pass, so a file draws them only
# when it is drawn to be exotic.
NUMPY_STYLES = ("plain", "plus", "zeros")
EXOTIC_STYLES = NUMPY_STYLES + ("indic", "underscore")


def int_token(draw, value, styles):
    text = str(value)
    style = draw(st.sampled_from(styles))
    if style == "plus":
        return "+" + text
    if style == "zeros":
        return "0" * draw(st.integers(1, 3)) + text
    if style == "indic":
        return text.translate(ARABIC_INDIC)
    if style == "underscore" and len(text) > 1:
        return text[0] + "_" + text[1:]
    return text


@st.composite
def layouts(draw, blanks):
    """Line endings, blank lines and the final newline of a file body."""
    return {
        "eol": draw(st.sampled_from(["\n", "\r\n"])),
        "blanks": draw(st.lists(st.sampled_from(blanks), max_size=3)),
        "blank_at": draw(st.lists(st.integers(0, 10**6), max_size=3)),
        "final_newline": draw(st.booleans()),
    }


def assemble(rows, layout, head=""):
    rows = list(rows)
    for blank, at in zip(layout["blanks"], layout["blank_at"]):
        rows.insert(at % (len(rows) + 1), blank)
    eol = layout["eol"]
    body = eol.join(rows)
    if rows and layout["final_newline"]:
        body += eol
    return head + body


@st.composite
def edge_files(draw):
    """A valid edge file: distinct pairs in any order and orientation, with
    varied separators and id spellings. Returns (text, point_count, rows)."""
    n = draw(st.integers(2, 40))
    pairs = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
            .filter(lambda p: p[0] != p[1])
            .map(lambda p: (min(p), max(p))),
            unique=True,
            max_size=30,
        )
    )
    styles = draw(st.sampled_from([NUMPY_STYLES, EXOTIC_STYLES]))
    lines = []
    for a, b in pairs:
        if draw(st.booleans()):
            a, b = b, a
        sep = draw(st.sampled_from(["\t", " ", "  \t ", "\t\t"]))
        lead = draw(st.sampled_from(["", " ", "\t"]))
        trail = draw(st.sampled_from(["", " ", "\t "]))
        lines.append(f"{lead}{int_token(draw, a, styles)}{sep}{int_token(draw, b, styles)}{trail}")
    return assemble(lines, draw(layouts(["", " ", "\t", " \t  "]))), n, lines


BAD_EDGE_KINDS = [
    "token", "columns", "range", "self_loop", "duplicate", "duplicate_swapped", "comment",
]


@st.composite
def bad_edge_files(draw):
    text, n, lines = draw(edge_files())
    kind = draw(st.sampled_from(BAD_EDGE_KINDS))
    a, b = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    if kind == "token":
        bad = f"{a}\t" + draw(st.sampled_from(["x", "1.0", "1e3", "0x1", "--1", "1-", "+"]))
    elif kind == "columns":
        bad = draw(st.sampled_from([f"{a}", f"{a}\t{b}\t{a}", f"{a} {b} 7 8"]))
    elif kind == "range":
        bad = f"{a}\t" + str(draw(st.sampled_from([-1, n, n + 5, 2**70, -(2**70)])))
    elif kind == "self_loop":
        bad = f"{a}\t{a}"
    elif kind == "comment":
        bad = draw(st.sampled_from(["#", "# comment", f"{a}\t{b} # note"]))
    else:
        if not lines:
            bad = f"{a}\t{a}"
        else:
            first, second = lines[draw(st.integers(0, len(lines) - 1))].split()
            bad = f"{second}\t{first}" if kind == "duplicate_swapped" else f"{first}\t{second}"
    rows = text.splitlines() if text else []
    rows.insert(draw(st.integers(0, len(rows))), bad)
    return "\n".join(rows) + "\n", n


def coordinate_header(n):
    params = ModelParams(n, 0.75, 0.0)
    ps = PointSet(params, np.zeros(n), np.zeros(n), MODE_FIXED, 3)
    buf = io.StringIO()
    write_coords(buf, ps)
    return buf.getvalue().splitlines(keepends=True)[0], params


def float_token(draw, value):
    style = draw(st.sampled_from(["g17", "repr", "plus", "padded"]))
    if style == "repr":
        return repr(value)
    if style == "plus":
        return f"+{value:.17g}"
    if style == "padded":
        return f" {value:.17g} "
    return f"{value:.17g}"


@st.composite
def coordinate_files(draw):
    """A valid coordinate file of n points. Returns (text, rows, params)."""
    n = draw(st.integers(1, 25))
    header, params = coordinate_header(n)
    radius = st.floats(0.0, params.R, allow_nan=False)
    angle = st.floats(0.0, math.nextafter(TWO_PI, 0.0), allow_nan=False)
    exotic = draw(st.booleans())
    styles = EXOTIC_STYLES if exotic else NUMPY_STYLES
    rows = []
    for idx in range(n):
        r, phi = draw(radius), draw(angle)
        rows.append(f"{int_token(draw, idx, styles)}\t{float_token(draw, r)}\t{float_token(draw, phi)}")
    # numpy splits coordinate rows at tabs only, so it refuses a blank line
    # holding spaces or tabs
    blanks = ["", " ", "\t"] if exotic else [""]
    return assemble(rows, draw(layouts(blanks)), head=header), rows, params


BAD_COORD_KINDS = ["token", "columns", "sequence", "nan", "inf", "radius", "angle", "comment"]


@st.composite
def bad_coordinate_files(draw):
    _, rows, params = draw(coordinate_files())
    header, _ = coordinate_header(params.n)
    at = draw(st.integers(0, len(rows) - 1))
    kind = draw(st.sampled_from(BAD_COORD_KINDS))
    ok_r, ok_phi = "0.5", "1.5"
    if kind == "token":
        bad = f"{at}\t" + draw(st.sampled_from(["abc", "1.5.5", "", "0x1p3", "1,5"])) + f"\t{ok_phi}"
    elif kind == "columns":
        bad = draw(st.sampled_from([f"{at}\t{ok_r}", f"{at}\t{ok_r}\t{ok_phi}\t", f"{at} {ok_r} {ok_phi}"]))
    elif kind == "sequence":
        bad = f"{draw(st.sampled_from([at + 1, at + 7, -1]))}\t{ok_r}\t{ok_phi}"
    elif kind == "nan":
        bad = draw(st.sampled_from([f"{at}\tnan\t{ok_phi}", f"{at}\t{ok_r}\tNaN"]))
    elif kind == "inf":
        bad = draw(st.sampled_from([f"{at}\tinf\t{ok_phi}", f"{at}\t{ok_r}\t-inf"]))
    elif kind == "radius":
        bad = f"{at}\t{draw(st.sampled_from([-0.5, params.R + 1.0, 1e300]))!r}\t{ok_phi}"
    elif kind == "angle":
        bad = f"{at}\t{ok_r}\t{draw(st.sampled_from([TWO_PI, -0.1, 7.0]))!r}"
    else:
        bad = "# comment"
    rows = list(rows)
    if kind == "comment":
        rows.insert(at, bad)
    else:
        rows[at] = bad
    return header + "\n".join(rows) + "\n"


class Pipe(io.StringIO):
    def seekable(self):
        return False


def accepted_by_numpy(monkeypatch):
    """Count the ``np.loadtxt`` calls that return rows rather than refuse."""
    accepted = []
    loadtxt = np.loadtxt

    def counted(*args, **kwargs):
        rows = loadtxt(*args, **kwargs)
        accepted.append(rows.size)
        return rows

    monkeypatch.setattr(np, "loadtxt", counted)
    return accepted


# Files with two faults, in both orders: a check that fails on some row
# (duplicate, range, self-loop, id sequence, domain) and a line whose
# token numpy refuses. The reader must name the earlier of the two, as
# the line parsers did.
TWO_FAULT_EDGES = [
    "0\t1\n1\t0\n1_0\tx\n",
    "0\t1\n1\t0\nabc\n",
    "0\t1\n1_0\tx\n1\t0\n",
    "0\t1\nabc\n1\t0\n",
    "0\t1\n\n2\t2\n\nabc\n",
    "1_0\t1\n0\t99\nabc\n",
    "1_0\t1\nabc\n0\t99\n",
    "0\t1\n1_0\t2\n2\t1_0\n1\t0\nx\n",
]

TWO_FAULT_COORDS = [
    "0\t0.5\t1.5\n2\t0.5\t1.5\n1_0\tabc\t1.5\n",
    "0\t0.5\t1.5\n2\t0.5\t1.5\nabc\n",
    "0\t0.5\t1.5\n1_0\tabc\t1.5\n2\t0.5\t1.5\n",
    "0\t0.5\t1.5\nabc\n2\t0.5\t1.5\n",
    "0\t0.5\t1.5\n\n1\t0.5\t7.0\n \n2\tabc\t1.5\n",
    "0_0\t0.5\t1.5\n1\tnan\t1.5\nabc\n",
    "0_0\t0.5\t1.5\nabc\n1\tnan\t1.5\n",
]


class TestTwoFaults:
    @pytest.mark.parametrize("text", TWO_FAULT_EDGES)
    def test_edges_name_the_earlier_fault(self, text):
        expected = outcome(oracle_read_edges, text, 11)
        assert expected[0] == "error"
        assert outcome(read_edges, text, 11) == expected
        # and with the faults' order reversed by reversing the lines
        reverse = "\n".join(reversed(text.splitlines())) + "\n"
        assert outcome(read_edges, reverse, 11) == outcome(oracle_read_edges, reverse, 11)

    @pytest.mark.parametrize("body", TWO_FAULT_COORDS)
    def test_coordinates_name_the_earlier_fault(self, body):
        header, _ = coordinate_header(3)
        expected = outcome(oracle_read_coords, header + body)
        assert expected[0] == "error"
        assert outcome(read_coords, header + body) == expected

    def test_check_after_blank_lines_in_a_pipe(self, monkeypatch):
        accepted = accepted_by_numpy(monkeypatch)
        text = "\n\n0\t1\n\n  \n2 3\n\n1\t0\n\n"
        with pytest.raises(DataFormatError) as err:
            read_edges(Pipe(text), 4)
        assert (err.value.line_number, str(err.value)) == outcome(oracle_read_edges, text, 4)[1:]
        assert err.value.line_number == 8

        header, _ = coordinate_header(3)
        text = header + "\n0\t0.5\t1.5\n\n\n1\t0.5\t1.5\n\n2\t0.5\t6.5\n"
        with pytest.raises(DataFormatError) as err:
            read_coords(Pipe(text))
        assert (err.value.line_number, str(err.value)) == outcome(oracle_read_coords, text)[1:]
        assert err.value.line_number == 8
        assert accepted == [3, 3]


class TestEdgeReader:
    @EXAMPLES
    @given(edge_files())
    def test_valid_files_match_line_parser(self, case):
        text, n, _ = case
        expected = outcome(oracle_read_edges, text, n)
        assert expected[0] == "edges"
        assert outcome(read_edges, text, n) == expected

    @EXAMPLES
    @given(bad_edge_files())
    def test_malformed_files_name_the_same_line(self, case):
        text, n = case
        expected = outcome(oracle_read_edges, text, n)
        assert expected[0] == "error"
        assert outcome(read_edges, text, n) == expected

    @pytest.mark.parametrize("text", ["", "\n", "  \n\t\n\n", "\r\n"])
    def test_empty_stream_skips_numpy(self, monkeypatch, text):
        def refuse(*args, **kwargs):
            raise AssertionError("np.loadtxt called on a stream without rows")

        monkeypatch.setattr(np, "loadtxt", refuse)
        edges = read_edges(io.StringIO(text), 5)
        assert edges.dtype == np.int64 and edges.shape == (0, 2)

    def test_file_and_pipe_streams(self, tmp_path):
        # a file is rewound for the int()/float() pass and a pipe is buffered
        # first; a read leaves the stream at its end either way
        path = tmp_path / "edges.tsv"
        for text, expected in [
            ("0\t1\r\n3 2\n\n", [[0, 1], [2, 3]]),
            ("0\t1\r\n3 2\n\n1_0\t4\n", [[0, 1], [2, 3], [4, 10]]),  # numpy refuses 1_0
        ]:
            path.write_text(text)
            with open(path, encoding="utf-8") as fh:
                assert read_edges(fh, 11).tolist() == expected
                assert fh.read() == ""

        assert read_edges(Pipe("0\t1\n"), 2).tolist() == [[0, 1]]
        with pytest.raises(DataFormatError) as err:
            read_edges(Pipe("0\t1\n1\t0\n"), 2)
        assert err.value.line_number == 2


class TestCoordinateReader:
    @EXAMPLES
    @given(coordinate_files())
    def test_valid_files_match_line_parser(self, case):
        text, _, _ = case
        expected = outcome(oracle_read_coords, text)
        assert expected[0] == "points"
        assert outcome(read_coords, text) == expected

    @EXAMPLES
    @given(bad_coordinate_files())
    def test_malformed_files_name_the_same_line(self, text):
        expected = outcome(oracle_read_coords, text)
        assert expected[0] == "error"
        assert outcome(read_coords, text) == expected

    def test_file_read_to_end(self, tmp_path):
        header, _ = coordinate_header(2)
        path = tmp_path / "coords.tsv"
        path.write_text(header + "0\t0.5\t1.5\n1\t0.25\t3\n")
        with open(path, encoding="utf-8") as fh:
            assert read_coords(fh).r.tolist() == [0.5, 0.25]
            assert fh.read() == ""

    def test_header_only_file(self):
        header, _ = coordinate_header(3)
        assert outcome(read_coords, header) == outcome(oracle_read_coords, header)
        assert outcome(read_coords, header)[0] == "error"
