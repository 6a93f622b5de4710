"""Tests for file formats, the CLI, the sweep harness, and verify."""

import io
import itertools
import json
import math
import os
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

from hrg._fork import fork_call
from hrg.cli import main
from hrg.experiments import (
    CSV_COLUMNS,
    SWEEP_CRITERIA,
    SweepConfig,
    SweepRecord,
    core_clique_and_giant,
    diameter_lower_bound,
    diameter_upper_bound,
    inner_band_reach,
    medians_by_n,
    run_sweep,
    second_component_bound,
    underpass_property,
    write_sweep_csv,
)
from hrg.files import (
    DataFormatError,
    build_report,
    dump_report,
    fixed_point_count,
    read_coords,
    read_edges,
    write_coords,
    write_edges,
)
from hrg.geometry import MAX_NODES, ModelParams, theta_exact
from hrg.graphgen import Graph, build_banded
from hrg import sampling, verify
from hrg.sampling import sample_fixed, sample_poisson
from hrg.verify import run_verify


# The frozen v1 sweep header, as the README documents it.
V1_HEADER = (
    "n,seed,R,m,mean_degree,beta_hat,giant_size,second_size,giant_diameter,"
    "max_empty_run,inner_band_hops,gen_ms,analysis_ms"
)


def run_cli(args):
    try:
        return main(list(args))
    except SystemExit as exc:  # argparse usage errors
        return int(exc.code)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def in_process_files(n, seed, poisson=False):
    """The coordinate and edge text the library writers give for one sample
    of ``hrg generate``'s defaults, and the sample's point and edge counts."""
    ps = (sample_poisson if poisson else sample_fixed)(ModelParams(n, 0.75, 0.0), seed)
    g = build_banded(ps)
    coords, edges = io.StringIO(), io.StringIO()
    write_coords(coords, ps)
    write_edges(edges, g)
    return coords.getvalue(), edges.getvalue(), len(ps), g.m


def generate_argv(coords, edges, n=10, seed=0):
    return ["generate", "--n", str(n), "--seed", str(seed),
            "--out-coords", str(coords), "--out-edges", str(edges)]


def main_after_print(argv):
    """Runs ``hrg.cli.main(argv)`` in a fresh interpreter that first prints
    "before" into its piped stdout. The pipe is block-buffered, so "before"
    is still in the buffer when the command forks: a child that flushed the
    buffer it inherited would print it twice."""
    script = "import sys; from hrg.cli import main; print('before'); sys.exit(main(sys.argv[1:]))"
    src = os.path.dirname(os.path.dirname(sys.modules["hrg"].__file__))
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("PYTHONUNBUFFERED", None)  # it would flush "before" at once
    return subprocess.run([sys.executable, "-c", script, *argv], capture_output=True,
                          text=True, env=env, timeout=120)


class TestGenerate:
    def test_round_trip_rebuild(self, tmp_path):
        coords = tmp_path / "points.tsv"
        edges = tmp_path / "edges.tsv"
        code = run_cli(
            [
                "generate", "--n", "10", "--alpha", "0.75", "--c-param", "0",
                "--seed", "7", "--out-coords", str(coords), "--out-edges", str(edges),
            ]
        )
        assert code == 0
        lines = coords.read_text().splitlines()
        assert len(lines) == 11  # header + 10 points
        with open(coords) as fh:
            ps = read_coords(fh)
        with open(edges) as fh:
            file_edges = read_edges(fh, len(ps))
        rebuilt = build_banded(ps)
        assert np.array_equal(rebuilt.edges(), file_edges)
        assert np.array_equal(ps.r, sample_fixed(ModelParams(10, 0.75, 0.0), 7).r)

    def test_poisson_count_above_the_node_limit_exits_2(self, tmp_path, capsys, monkeypatch):
        # seed 0's count at mean 2**31 - 1 is 2,147,501,901: refused before
        # any point is drawn or any file opened
        def no_points(*args):
            raise AssertionError("points drawn")

        monkeypatch.setattr(sampling, "_draw_points", no_points)
        argv = ["generate", "--n", str(MAX_NODES), "--poisson", "--seed", "0",
                "--out-coords", str(tmp_path / "c.tsv"), "--out-edges", str(tmp_path / "e.tsv")]
        assert run_cli(argv) == 2
        line = "hrg generate: Poisson count 2147501901 is above the node limit 2**31 - 1\n"
        assert capsys.readouterr() == ("", line)
        assert not list(tmp_path.iterdir())

    def test_single_node(self, tmp_path):
        coords = tmp_path / "c.tsv"
        edges = tmp_path / "e.tsv"
        code = run_cli(
            ["generate", "--n", "1", "--out-coords", str(coords), "--out-edges", str(edges)]
        )
        assert code == 0
        assert len(coords.read_text().splitlines()) == 2
        assert edges.read_text() == ""

    def test_device_may_take_both_outputs(self, capsys):
        # only one regular file named twice is refused
        assert run_cli(generate_argv(os.devnull, os.devnull, n=100)) == 0
        assert capsys.readouterr().out.startswith("wrote 100 points")

    def test_poisson_count_reproducible(self, tmp_path):
        out = []
        for name in ("a", "b"):
            coords = tmp_path / f"{name}.tsv"
            edges = tmp_path / f"{name}-e.tsv"
            code = run_cli(
                [
                    "generate", "--poisson", "--n", "100", "--seed", "1",
                    "--out-coords", str(coords), "--out-edges", str(edges),
                ]
            )
            assert code == 0
            out.append(coords.read_text())
        assert out[0] == out[1]
        header = out[0].splitlines()[0]
        assert "mode=poisson" in header

    def test_io_failure_exit_code(self, tmp_path, monkeypatch):
        def no_fork():
            raise AssertionError("forked before the coordinate file was open")

        monkeypatch.setattr(os, "fork", no_fork)
        code = run_cli(
            [
                "generate", "--n", "5",
                "--out-coords", str(tmp_path / "missing" / "c.tsv"),
                "--out-edges", str(tmp_path / "e.tsv"),
            ]
        )
        assert code == 3
        assert not (tmp_path / "e.tsv").exists()
        assert_no_child_left()

    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("n", [1, 10, 2000])
    @pytest.mark.parametrize("poisson", [False, True], ids=["fixed", "poisson"])
    def test_files_match_in_process_writers(self, tmp_path, capsys, poisson, n, seed):
        coords, edges = tmp_path / "c.tsv", tmp_path / "e.tsv"
        argv = generate_argv(coords, edges, n, seed) + (["--poisson"] if poisson else [])
        assert run_cli(argv) == 0
        want_coords, want_edges, points, m = in_process_files(n, seed, poisson)
        assert coords.read_bytes() == want_coords.encode()
        assert edges.read_bytes() == want_edges.encode()
        mode = "poisson" if poisson else "fixed"
        out = capsys.readouterr().out.splitlines()
        assert len(out) == 1 and out[0].startswith(f"wrote {points} points and {m} edges (mode={mode}")
        assert_no_child_left()

    def test_child_leaves_inherited_stdout_buffer_alone(self, tmp_path):
        argv = generate_argv(tmp_path / "c.tsv", tmp_path / "e.tsv", n=100, seed=3)
        proc = main_after_print(argv)
        assert proc.returncode == 0, proc.stderr
        _, _, points, m = in_process_files(100, 3)
        assert proc.stdout.splitlines() == [
            "before", f"wrote {points} points and {m} edges (mode=fixed, R={2 * np.log(100):.6g})"
        ]

    def test_coords_to_full_device(self, tmp_path, capsys):
        edges = tmp_path / "e.tsv"
        assert run_cli(generate_argv("/dev/full", edges, n=2000, seed=1)) == 3
        err = capsys.readouterr().err
        assert err == "hrg generate: I/O error: [Errno 28] No space left on device\n"
        assert_no_child_left()

    def test_edges_to_full_device(self, tmp_path, capsys):
        coords = tmp_path / "c.tsv"
        assert run_cli(generate_argv(coords, "/dev/full", n=2000, seed=1)) == 3
        err = capsys.readouterr().err
        assert err == "hrg generate: I/O error: [Errno 28] No space left on device\n"
        assert coords.read_bytes() == in_process_files(2000, 1)[0].encode()
        assert_no_child_left()

    def test_writer_failure_propagates_and_reaps(self, tmp_path, monkeypatch):
        # the forked child inherits the patched writer
        def broken_writer(stream, ps):
            raise ValueError("writer broke")

        monkeypatch.setattr("hrg.files.write_coords", broken_writer)
        coords, edges = tmp_path / "c.tsv", tmp_path / "e.tsv"
        with pytest.raises(ValueError, match="^writer broke$"):
            run_cli(generate_argv(coords, edges, n=2000, seed=1))
        assert_no_child_left()
        assert coords.read_bytes() == b""
        assert edges.read_bytes() == in_process_files(2000, 1)[1].encode()

    def test_build_failure_propagates_and_reaps(self, tmp_path, monkeypatch):
        def broken_build(ps):
            raise RuntimeError("builder broke")

        monkeypatch.setattr("hrg.graphgen.build_banded", broken_build)
        coords, edges = tmp_path / "c.tsv", tmp_path / "e.tsv"
        with pytest.raises(RuntimeError, match="builder broke"):
            run_cli(generate_argv(coords, edges, n=2000, seed=1))
        assert_no_child_left()
        assert coords.read_bytes() == in_process_files(2000, 1)[0].encode()
        assert not edges.exists()

    def test_usage_error_exit_code(self):
        assert run_cli(["generate", "--n"]) == 2
        assert run_cli(["generate", "--n", "0", "--out-coords", "x", "--out-edges", "y"]) == 2

    @pytest.mark.parametrize(
        "flags",
        [
            ["--seed", "-1"],
            ["--c-param", "-100"],
            ["--c-param", "nan"],
            ["--alpha", "inf"],
            ["--alpha", "1000"],
            ["--c-param", "700"],
        ],
        ids=["negative-seed", "negative-radius", "nan-c", "infinite-alpha", "alpha-r-overflow",
             "edge-test-overflow"],
    )
    def test_bad_model_input_is_usage_error(self, tmp_path, capsys, flags):
        coords = tmp_path / "c.tsv"
        argv = ["generate", "--n", "10", *flags, "--out-coords", str(coords),
                "--out-edges", str(tmp_path / "e.tsv")]
        assert run_cli(argv) == 2
        assert capsys.readouterr().err.startswith("hrg generate: ")
        assert not coords.exists()


def write_fixture(tmp_path, params, radii, angles, edge_rows, seed=0):
    from hrg.sampling import MODE_FIXED, PointSet

    ps = PointSet(params, np.asarray(radii, float), np.asarray(angles, float), MODE_FIXED, seed)
    coords = tmp_path / "coords.tsv"
    edges = tmp_path / "edges.tsv"
    with open(coords, "w") as fh:
        write_coords(fh, ps)
    with open(edges, "w") as fh:
        for a, b in edge_rows:
            fh.write(f"{a}\t{b}\n")
    return coords, edges


class TestAnalyze:
    def test_triangle_fixture(self, tmp_path, capsys):
        params = ModelParams(3, 0.75, 0.0)
        coords, edges = write_fixture(
            tmp_path, params, [0.1, 0.1, 0.1], [0.0, 2.0, 4.0], [(0, 1), (0, 2), (1, 2)]
        )
        assert run_cli(["analyze", "--coords", str(coords), "--edges", str(edges)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["schema"] == 1
        assert report["components"]["giant_size"] == 3
        assert report["components"]["giant_diameter"] == 1

    def test_path_fixture_diameter(self, tmp_path, capsys):
        params = ModelParams(4, 0.75, 0.0)
        R = params.R
        step = 0.9 * theta_exact(R, R, R)
        coords, edges = write_fixture(
            tmp_path,
            params,
            [R, R, R, R],
            [0.0, step, 2.0 * step, 3.0 * step],
            [(0, 1), (1, 2), (2, 3)],
        )
        assert run_cli(["analyze", "--coords", str(coords), "--edges", str(edges)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["components"]["giant_diameter"] == 3

    def test_missing_id_exit_code_and_line(self, tmp_path, capsys):
        params = ModelParams(3, 0.75, 0.0)
        coords, edges = write_fixture(
            tmp_path, params, [0.1, 0.1, 0.1], [0.0, 2.0, 4.0], [(0, 1), (0, 99)]
        )
        assert run_cli(["analyze", "--coords", str(coords), "--edges", str(edges)]) == 4
        err = capsys.readouterr().err
        assert "line 2" in err and "99" in err

    def test_matches_in_memory_pipeline(self, tmp_path):
        params = ModelParams(10_000, 0.75, 0.0)
        ps = sample_fixed(params, 5)
        g = build_banded(ps)
        coords = tmp_path / "c.tsv"
        edges = tmp_path / "e.tsv"
        with open(coords, "w") as fh:
            write_coords(fh, ps)
        with open(edges, "w") as fh:
            write_edges(fh, g)
        report_path = tmp_path / "report.json"
        code = run_cli(
            [
                "analyze", "--coords", str(coords), "--edges", str(edges),
                "--report", str(report_path),
            ]
        )
        assert code == 0
        from_files = json.loads(report_path.read_text())
        in_memory = json.loads(json.dumps(build_report(g)))
        assert from_files == in_memory

    def test_single_node_file(self, tmp_path, capsys):
        # n = 1, C = 0 gives R = 0, where the inner band covers the disc
        coords, edges = tmp_path / "c.tsv", tmp_path / "e.tsv"
        argv = ["generate", "--n", "1", "--out-coords", str(coords), "--out-edges", str(edges)]
        assert run_cli(argv) == 0
        capsys.readouterr()
        assert run_cli(["analyze", "--coords", str(coords), "--edges", str(edges)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["bands"]["inner_count"] == 1
        assert report["checks"] == {"core_size": 1, "core_clique": True, "core_in_giant": True}

    def test_poisson_header_n_far_above_row_count(self, tmp_path, capsys):
        # the band diagnostics split the circle into n sectors, and the
        # largest n, 2^31 - 1 sectors, would take 16 GB as a histogram
        from hrg.sampling import MODE_POISSON, PointSet

        params = ModelParams(MAX_NODES, 0.75, 0.0)
        ps = PointSet(params, np.array([1.0, 2.0, 3.0]), np.array([0.5, 1.5, 2.5]), MODE_POISSON, 1)
        coords, edges = tmp_path / "c.tsv", tmp_path / "e.tsv"
        with open(coords, "w") as fh:
            write_coords(fh, ps)
        edges.write_text("")
        assert run_cli(["analyze", "--coords", str(coords), "--edges", str(edges)]) == 0
        bands = json.loads(capsys.readouterr().out)["bands"]
        assert bands["sectors"] == MAX_NODES
        assert bands["max_nodes_in_window"] == 1

    def test_nonpositive_alpha_header_is_data_error(self, tmp_path, capsys):
        coords, edges = write_fixture(tmp_path, ModelParams(3, 0.75, 0.0), [0.1] * 3, [0.0, 2.0, 4.0], [])
        text = coords.read_text().replace("alpha=0.75", "alpha=-0.5", 1)
        coords.write_text(text)
        assert run_cli(["analyze", "--coords", str(coords), "--edges", str(edges)]) == 4
        err = capsys.readouterr().err
        assert "line 1" in err and "alpha" in err

    def test_node_count_past_int32_ids_is_data_error(self, tmp_path, capsys):
        coords, edges = write_fixture(tmp_path, ModelParams(3, 0.75, 0.0), [0.1] * 3, [0.0, 2.0, 4.0], [])
        coords.write_text(coords.read_text().replace("n=3 ", f"n={2**31} ", 1))
        assert run_cli(["analyze", "--coords", str(coords), "--edges", str(edges)]) == 4
        err = capsys.readouterr().err
        assert "line 1" in err and f"node count must be below 2**31, got {2**31}" in err

    def test_radius_past_the_edge_test_is_data_error(self, tmp_path, capsys):
        coords, edges = write_fixture(tmp_path, ModelParams(3, 0.75, 0.0), [0.1] * 3, [0.0, 2.0, 4.0], [])
        # the header's C is refused before its R is compared
        coords.write_text(coords.read_text().replace("C=0.0", "C=700.0", 1))
        assert run_cli(["analyze", "--coords", str(coords), "--edges", str(edges)]) == 4
        err = capsys.readouterr().err
        assert "line 1" in err and "overflows" in err

    def test_alpha_at_least_one_is_usage_error(self, tmp_path, capsys):
        coords, edges = write_fixture(tmp_path, ModelParams(3, 1.5, 0.0), [0.1] * 3, [0.0, 2.0, 4.0], [])
        assert run_cli(["analyze", "--coords", str(coords), "--edges", str(edges)]) == 2
        assert "alpha=1.5" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_inner_c_is_usage_error(self, tmp_path, capsys, value):
        # the files do not exist: the flag is refused before any is opened
        files = ["--coords", str(tmp_path / "c.tsv"), "--edges", str(tmp_path / "e.tsv")]
        assert run_cli(["analyze", *files, "--inner-c", value]) == 2
        assert capsys.readouterr().err.startswith("hrg analyze: ")

    @pytest.mark.parametrize("column, value", [(1, "nan"), (1, "99"), (2, "inf"), (2, "-0.5")])
    def test_bad_coordinate_names_its_line(self, tmp_path, capsys, column, value):
        coords, edges = write_fixture(
            tmp_path, ModelParams(5, 0.75, 0.0), [0.1] * 5, [0.0, 1.0, 2.0, 3.0, 4.0], []
        )
        lines = coords.read_text().splitlines()
        row = lines[4].split("\t")  # point 3, on line 5
        row[column] = value
        lines[4] = "\t".join(row)
        coords.write_text("\n".join(lines) + "\n")
        with open(coords) as fh, pytest.raises(DataFormatError) as err:
            read_coords(fh)
        assert err.value.line_number == 5
        assert run_cli(["analyze", "--coords", str(coords), "--edges", str(edges)]) == 4
        assert "line 5" in capsys.readouterr().err

    def test_file_round_trip_graph_identity(self, tmp_path):
        ps = sample_fixed(ModelParams(2000, 0.75, 0.0), 6)
        g = build_banded(ps)
        coords = tmp_path / "c.tsv"
        with open(coords, "w") as fh:
            write_coords(fh, ps)
        with open(coords) as fh:
            ps_back = read_coords(fh)
        assert np.array_equal(ps.r, ps_back.r)
        assert np.array_equal(ps.phi, ps_back.phi)
        assert np.array_equal(build_banded(ps_back).edges(), g.edges())

    # Error order through the fork: a coordinate file's error comes first,
    # then the model's, then the edge file's, as in a serial read.
    BAD_ROW = "inconsistent data: line 5: point 3 (nan, 3.0) not in [0, R] x [0, 2pi)"
    ALPHA = "inner band needs alpha < 1, got alpha=1.5"
    MISSING = "I/O error: [Errno 2] No such file or directory: '{}'"

    @pytest.mark.parametrize(
        "coords_kind, edges_kind, code, first_line",
        [
            ("missing", "missing", 3, MISSING.format("{coords}")),
            ("good", "missing", 3, MISSING.format("{edges}")),
            ("good", "self-loop", 4, "inconsistent data: line 6: self-loop at id 3"),
            ("bad-row", "missing", 4, BAD_ROW),
            ("bad-row", "bad", 4, BAD_ROW),
            ("alpha", "missing", 2, ALPHA),
            ("alpha", "self-loop", 2, ALPHA),
        ],
        ids=["missing-missing", "good-missing", "good-self-loop", "bad-row-missing",
             "bad-row-bad", "alpha-missing", "alpha-self-loop"],
    )
    def test_error_order(self, tmp_path, capsys, coords_kind, edges_kind, code, first_line):
        alpha = 1.5 if coords_kind == "alpha" else 0.75
        coords, edges = write_fixture(
            tmp_path, ModelParams(5, alpha, 0.0), [0.1] * 5, [0.0, 1.0, 2.0, 3.0, 4.0],
            [(0, 1), (1, 2), (2, 3), (3, 4), (0, 2), (3, 3)],
        )
        if coords_kind == "missing":
            coords.unlink()
        elif coords_kind == "bad-row":
            lines = coords.read_text().splitlines(keepends=True)
            lines[4] = lines[4].replace("0.10000000000000001", "nan")
            coords.write_text("".join(lines))
        if edges_kind == "missing":
            edges.unlink()
        elif edges_kind == "bad":
            edges.write_text("0\tx\n")
        assert run_cli(["analyze", "--coords", str(coords), "--edges", str(edges)]) == code
        err = capsys.readouterr().err
        assert err.splitlines()[0] == "hrg analyze: " + first_line.format(coords=coords, edges=edges)
        assert_no_child_left()

    def test_poisson_pair_exits_zero(self, tmp_path, capsys):
        coords, edges = tmp_path / "c.tsv", tmp_path / "e.tsv"
        assert run_cli(generate_argv(coords, edges, n=300, seed=4) + ["--poisson"]) == 0
        capsys.readouterr()
        assert run_cli(["analyze", "--coords", str(coords), "--edges", str(edges)]) == 0
        out, err = capsys.readouterr()
        assert err == "" and out.splitlines()[0] == "{"
        assert json.loads(out)["model"]["mode"] == "poisson"
        assert_no_child_left()

    def test_io_error_in_the_child_is_io_error(self, tmp_path, capsys, monkeypatch):
        # the forked child inherits the patched reader
        def unreadable(stream):
            raise OSError("coordinate disk gone")

        monkeypatch.setattr("hrg.files.read_coords", unreadable)
        coords, edges = tmp_path / "c.tsv", tmp_path / "e.tsv"
        assert run_cli(generate_argv(coords, edges)) == 0
        capsys.readouterr()
        assert run_cli(["analyze", "--coords", str(coords), "--edges", str(edges)]) == 3
        assert capsys.readouterr().err == "hrg analyze: I/O error: coordinate disk gone\n"
        assert_no_child_left()

    @pytest.mark.parametrize("kind", ["fixed", "poisson", "pipe"])
    def test_report_equals_library_path(self, tmp_path, kind):
        # a fixed file has its graph built while the points are read; a
        # Poisson file and a pipe, which cannot be read ahead, after them
        coords, edges, report = tmp_path / "c.tsv", tmp_path / "e.tsv", tmp_path / "r.json"
        argv = generate_argv(coords, edges, n=2000, seed=3) + (["--poisson"] if kind == "poisson" else [])
        assert run_cli(argv) == 0
        with open(coords, encoding="utf-8") as fh:
            ps = read_coords(fh)
        with open(edges, encoding="utf-8") as fh:
            g = Graph.from_edge_array(ps, *read_edges(fh, len(ps)))
        expected = io.StringIO()
        dump_report(build_report(g), expected)
        analyze = ["analyze", "--edges", str(edges), "--report", str(report)]
        if kind == "pipe":
            src = os.path.dirname(os.path.dirname(sys.modules["hrg"].__file__))
            proc = subprocess.run(
                [sys.executable, "-m", "hrg.cli", *analyze, "--coords", "/dev/stdin"],
                input=coords.read_bytes(), capture_output=True,
                env=dict(os.environ, PYTHONPATH=src), timeout=120,
            )
            assert proc.returncode == 0, proc.stderr
        else:
            assert run_cli(analyze + ["--coords", str(coords)]) == 0
            assert_no_child_left()
        assert report.read_bytes() == expected.getvalue().encode()

    def test_huge_fixed_header_builds_no_graph(self, tmp_path, capsys, monkeypatch):
        # a header claiming 2**30 points over three rows: the file is too
        # short for that many rows, so no graph of 2**30 nodes is built
        # while the child reads the rows
        coords, edges = write_fixture(
            tmp_path, ModelParams(3, 0.75, 0.0), [0.1] * 3, [0.0, 2.0, 4.0], [(0, 1), (1, 2)]
        )
        huge = ModelParams(2**30, 0.75, 0.0)
        lines = coords.read_text().splitlines(keepends=True)
        lines[0] = f"# hrg v1 n={huge.n} alpha=0.75 C=0.0 R={huge.R!r} seed=0 mode=fixed\n"
        coords.write_text("".join(lines))
        build, built = Graph.from_edge_array, []

        def recording_build(nodes, us, vs):
            built.append(nodes if isinstance(nodes, int) else len(nodes))
            if built[-1] > 1000:
                raise AssertionError(f"a graph of {built[-1]} nodes")  # before allocating it
            return build(nodes, us, vs)

        monkeypatch.setattr(Graph, "from_edge_array", recording_build)
        assert run_cli(["analyze", "--coords", str(coords), "--edges", str(edges)]) == 4
        assert capsys.readouterr().err.splitlines()[0] == (
            f"hrg analyze: inconsistent data: line 1: fixed mode requires exactly n={2**30} points, got 3"
        )
        assert built == []
        assert_no_child_left()

    @pytest.mark.parametrize(
        "edge_text", ["0\t2000\n", "5\t5\n", "0\tx\n"], ids=["missing-id", "self-loop", "unparsable"]
    )
    def test_bad_row_beside_bad_edges(self, tmp_path, capsys, edge_text):
        # the parent checks the edges against the header's count while the
        # child reads the rows; the child's error still comes first
        coords, edges = tmp_path / "c.tsv", tmp_path / "e.tsv"
        assert run_cli(generate_argv(coords, edges, n=2000, seed=5)) == 0
        capsys.readouterr()
        lines = coords.read_text().splitlines(keepends=True)
        lines[1499] = "1498\tnan\t1.0\n"
        coords.write_text("".join(lines))
        edges.write_text(edge_text)
        with open(coords, encoding="utf-8") as fh:
            assert fixed_point_count(fh) == 2000
        assert run_cli(["analyze", "--coords", str(coords), "--edges", str(edges)]) == 4
        assert capsys.readouterr().err.splitlines()[0] == (
            "hrg analyze: inconsistent data: line 1500: point 1498 (nan, 1.0) not in [0, R] x [0, 2pi)"
        )
        assert_no_child_left()

    @pytest.mark.parametrize("poisson", [False, True], ids=["fixed", "poisson"])
    def test_stdout_report_equals_report_file(self, tmp_path, poisson):
        # the stdout of a fresh interpreter holds one JSON document, so the
        # forked child wrote nothing to it
        coords, edges, report = tmp_path / "c.tsv", tmp_path / "e.tsv", tmp_path / "r.json"
        argv = generate_argv(coords, edges, n=2000, seed=2) + (["--poisson"] if poisson else [])
        assert run_cli(argv) == 0
        analyze = ["analyze", "--coords", str(coords), "--edges", str(edges)]
        assert run_cli(analyze + ["--report", str(report)]) == 0
        src = os.path.dirname(os.path.dirname(sys.modules["hrg"].__file__))
        proc = subprocess.run([sys.executable, "-m", "hrg.cli", *analyze], capture_output=True,
                              env=dict(os.environ, PYTHONPATH=src), timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == report.read_bytes()
        assert json.loads(proc.stdout)["model"]["mode"] == ("poisson" if poisson else "fixed")


class TestUndecodableInput:
    """One byte that is not UTF-8 exits 4 naming its line. The files span
    several of text mode's 8 KB decoding chunks, so the line being read
    when the decoder fails is not the bad one."""

    @pytest.fixture
    def files(self, tmp_path):
        coords, edges = tmp_path / "c.tsv", tmp_path / "e.tsv"
        assert run_cli(generate_argv(coords, edges, n=2000, seed=1)) == 0
        return coords, edges

    @staticmethod
    def spoil(path, line_no):
        lines = path.read_bytes().split(b"\n")
        lines[line_no - 1] = lines[line_no - 1][:3] + b"\xff" + lines[line_no - 1][3:]
        path.write_bytes(b"\n".join(lines))

    @pytest.mark.parametrize("which, line_no", [("coords", 1), ("coords", 1500), ("edges", 4000)])
    def test_analyze_names_the_line(self, files, capsys, which, line_no):
        coords, edges = files
        self.spoil(coords if which == "coords" else edges, line_no)
        capsys.readouterr()
        assert run_cli(["analyze", "--coords", str(coords), "--edges", str(edges)]) == 4
        assert f"inconsistent data: line {line_no}: not valid utf-8 text" in capsys.readouterr().err

    @pytest.mark.parametrize("which, line_no", [("coords", 1500), ("edges", 4000)])
    def test_verify_input_files_name_the_line(self, files, capsys, which, line_no):
        coords, edges = files
        self.spoil(coords if which == "coords" else edges, line_no)
        capsys.readouterr()
        argv = ["verify", "--quick", "--seed", "123", "--coords", str(coords), "--edges", str(edges)]
        assert run_cli(argv) == 4
        assert f"inconsistent data: line {line_no}: not valid utf-8 text" in capsys.readouterr().err
        assert_no_child_left()

    def test_pipe_names_line_one(self):
        # a pipe's bytes cannot be read again: line 1 is at or before the bad one
        read_end, write_end = os.pipe()
        os.write(write_end, b"0\t1\n1\t2\n2\t\xff3\n")
        os.close(write_end)
        with open(read_end, encoding="utf-8") as fh, pytest.raises(DataFormatError) as err:
            read_edges(fh, 4)
        assert err.value.line_number == 1


class TestEdgeFileValidation:
    def test_self_loop_and_duplicate(self, tmp_path):
        import io

        with pytest.raises(DataFormatError) as err:
            read_edges(io.StringIO("1\t1\n"), 5)
        assert err.value.line_number == 1
        with pytest.raises(DataFormatError) as err:
            read_edges(io.StringIO("0\t1\n1\t0\n"), 5)
        assert err.value.line_number == 2

    def test_header_mismatch_detected(self):
        import io

        bad = "# hrg v1 n=10 alpha=0.75 C=0.0 R=1.0 seed=0 mode=fixed\n"
        with pytest.raises(DataFormatError):
            read_coords(io.StringIO(bad))


class TestSweep:
    def make_config(self, tmp_path, **overrides):
        payload = {
            "n_values": [1024, 2048],
            "alpha": 0.75,
            "C": 0.0,
            "seeds": 3,
        }
        payload.update(overrides)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(payload))
        return path

    def test_row_count_and_header(self, tmp_path):
        config = self.make_config(tmp_path)
        out = tmp_path / "sweep.csv"
        assert run_cli(["sweep", "--config", str(config), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == V1_HEADER == ",".join(CSV_COLUMNS)
        assert len(lines) == 1 + 6

    def test_deterministic_modulo_timings(self, tmp_path):
        config = self.make_config(tmp_path)
        tables = []
        for name in ("one", "two"):
            out = tmp_path / f"{name}.csv"
            assert run_cli(["sweep", "--config", str(config), "--out", str(out)]) == 0
            tables.append(out.read_text())

        def strip_timings(text):
            rows = [line.split(",") for line in text.splitlines()]
            return [row[:-2] for row in rows]

        assert strip_timings(tables[0]) == strip_timings(tables[1])

    def test_jobs_do_not_change_results(self, tmp_path):
        cfg = SweepConfig(n_values=(256, 512), alpha=0.75, C=0.0, seeds=2)
        serial = run_sweep(cfg)
        import dataclasses

        parallel = run_sweep(dataclasses.replace(cfg, jobs=2))
        for a, b in zip(serial, parallel):
            assert (a.n, a.seed, a.m, a.giant_size, a.giant_diameter) == (
                b.n, b.seed, b.m, b.giant_size, b.giant_diameter
            )

    def test_doubling_n_doubles_edges(self, tmp_path):
        cfg = SweepConfig(n_values=(4096, 8192), alpha=0.75, C=0.0, seeds=3)
        records = run_sweep(cfg)
        small = np.mean([r.m for r in records if r.n == 4096])
        large = np.mean([r.m for r in records if r.n == 8192])
        assert abs(large / small - 2.0) <= 0.15 * 2.0

    def test_failed_cell_marks_row_and_exit(self, tmp_path, capsys, monkeypatch):
        def broken(*args):
            raise RuntimeError("injected fault")

        config = self.make_config(tmp_path, n_values=[64, 128], seeds=1, jobs=1)
        out = tmp_path / "sweep.csv"
        # the columns a fault at each stage leaves set; every other one reads nan
        for target, kept in [
            ("build_banded", {"n", "seed", "R"}),
            ("analyze_graph", {"n", "seed", "R", "m", "gen_ms"}),
        ]:
            with monkeypatch.context() as patch:
                patch.setattr(f"hrg.experiments.{target}", broken)
                assert run_cli(["sweep", "--config", str(config), "--out", str(out)]) == 1
            lines = out.read_text().splitlines()
            assert len(lines) == 3
            for line in lines[1:]:
                cells = line.split(",")
                assert len(cells) == len(CSV_COLUMNS)
                for name, cell in zip(CSV_COLUMNS, cells):
                    assert (cell == "nan") == (name not in kept), (target, name, cell)
            assert "failed" in capsys.readouterr().err

    def test_unwritable_out_fails_before_the_cells_run(self, tmp_path, monkeypatch):
        seen = []
        monkeypatch.setattr("hrg.experiments.run_sweep", lambda cfg: seen.append(cfg) or [])
        config = self.make_config(tmp_path)
        out = tmp_path / "missing" / "sweep.csv"
        assert run_cli(["sweep", "--config", str(config), "--out", str(out)]) == 3
        assert seen == []

    def test_alpha_near_one_cell_runs(self):
        [record] = run_sweep(SweepConfig(n_values=(1000,), alpha=0.999, C=0.0, seeds=1))
        assert not record.failed, record.error

    def test_bad_config_exit_code(self, tmp_path):
        for overrides in [
            {"n_values": [2048, 1024]},
            {"bogus_key": 1},
            {"alpha": 1.5},
            {"seeds": 2.5},
            {"seeds": True},
            {"jobs": 1.5},
            {"n_values": [256.9]},
            {"n_values": [True, 256]},
            {"underpass_trials": 1.5},
            {"underpass_trials": -3},
            {"inner_c": float("nan")},
            {"inner_c": float("inf")},
            {"inner_c": True},
            {"C": True},
            {"C": "0"},
            {"out_csv": 1},
            {"out_csv": "x.csv"},
            {"n_values": [10, 1000], "alpha": 0.99, "C": 695.0},
            {"n_values": [10, 1000], "alpha": 0.75, "C": 345.0},
            {"n_values": []},
            {"seeds": 0},
            {"mode": "grid"},
        ]:
            config = self.make_config(tmp_path, **overrides)
            assert run_cli(["sweep", "--config", str(config)]) == 2, overrides

    def test_radius_past_the_edge_test_rejected_at_the_largest_n(self):
        # R = 2 ln n + C is 349.6 at n = 10 and 358.8 at n = 1000
        SweepConfig(n_values=(10,), alpha=0.75, C=345.0, seeds=1)
        with pytest.raises(ValueError, match="overflows"):
            SweepConfig(n_values=(10, 1000), alpha=0.75, C=345.0, seeds=1)

    def test_node_count_past_int32_ids_is_usage_error(self, tmp_path, capsys):
        SweepConfig(n_values=(1024, MAX_NODES), alpha=0.75, C=0.0, seeds=1)
        config = self.make_config(tmp_path, n_values=[1024, 2**31])
        assert run_cli(["sweep", "--config", str(config)]) == 2
        assert capsys.readouterr().err == (
            f"hrg sweep: bad config: node count must be below 2**31, got {2**31}\n"
        )

    def test_removed_toggle_keys_rejected(self, tmp_path):
        for key in ("run_diameter", "run_degrees", "run_sectors", "run_inner_hops"):
            config = self.make_config(tmp_path, **{key: True})
            assert run_cli(["sweep", "--config", str(config)]) == 2

    def test_sweep_row_and_report_agree(self):
        [record] = run_sweep(SweepConfig(n_values=(4096,), alpha=0.75, C=0.0, seeds=1))
        g = build_banded(sample_fixed(ModelParams(4096, 0.75, 0.0), record.seed))
        report = build_report(g, inner_c=1.0)
        comps, checks = report["components"], report["checks"]
        assert record.giant_size == comps["giant_size"]
        assert record.second_size == comps["second_size"]
        assert record.giant_diameter == comps["giant_diameter"]
        assert record.mean_degree == report["graph"]["mean_degree"]
        assert record.max_empty_run == report["bands"]["max_empty_sector_run"]
        assert record.core_clique is checks["core_clique"] is True
        assert record.core_in_giant is checks["core_in_giant"]
        assert record.core_size == checks["core_size"] > 0
        assert type(checks["core_size"]) is int and type(checks["core_in_giant"]) is bool

    def test_jobs_flag_replaces_config(self, tmp_path, monkeypatch):
        seen = []
        monkeypatch.setattr("hrg.experiments.run_sweep", lambda cfg: seen.append(cfg.jobs) or [])
        config = self.make_config(tmp_path, jobs=3)
        assert run_cli(["sweep", "--config", str(config)]) == 0
        assert run_cli(["sweep", "--config", str(config), "--jobs", "2"]) == 0
        assert seen == [3, 2]
        assert run_cli(["sweep", "--config", str(config), "--jobs", "0"]) == 2
        assert seen == [3, 2]

    def test_csv_written_via_api(self, tmp_path):
        import io

        cfg = SweepConfig(n_values=(128,), alpha=0.75, C=0.0, seeds=1)
        records = run_sweep(cfg)
        buf = io.StringIO()
        write_sweep_csv(records, buf)
        rows = buf.getvalue().splitlines()
        assert rows[0].split(",")[:2] == ["n", "seed"]
        assert rows[1].split(",")[0] == "128"


    def test_pool_never_outnumbers_cells(self, monkeypatch):
        # a stand-in that maps serially records each pool size; no process starts
        import concurrent.futures
        import dataclasses

        sizes = []

        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        cfg = SweepConfig(n_values=(64, 128), alpha=0.75, C=0.0, seeds=1, jobs=64)
        assert [(r.n, r.seed) for r in run_sweep(cfg)] == [(64, 1), (128, 1)]
        assert [r.n for r in run_sweep(dataclasses.replace(cfg, n_values=(64,)))] == [64]
        assert len(run_sweep(dataclasses.replace(cfg, seeds=3, jobs=4))) == 6
        assert sizes == [2, 4]


def cells(field, values_by_n, **fixed):
    """Records with ``field`` set to each listed value at its n, seeds 1, 2, ..."""
    return [
        SweepRecord(n=n, seed=seed, **{field: value}, **fixed)
        for n, values in values_by_n.items()
        for seed, value in enumerate(values, 1)
    ]


class TestSweepCriteria:
    """Each criterion fails on records that break exactly its bound and
    passes at the bound."""

    def test_medians_by_n_reads_the_records(self):
        records = cells("giant_diameter", {4096: [9.0, 1.0, 5.0], 2048: [2.0, 4.0]})
        assert medians_by_n(records, "giant_diameter") == {2048: 3.0, 4096: 5.0}
        assert list(medians_by_n(records, "giant_diameter")) == [2048, 4096]

    def test_lower_bound(self):
        half = {n: [0.5 * math.log(n)] * 3 for n in (2048, 4096)}
        assert diameter_lower_bound(cells("giant_diameter", half))[0]
        below = {2048: [0.49 * math.log(2048)], 4096: [10.0]}
        assert not diameter_lower_bound(cells("giant_diameter", below))[0]
        ok, detail = diameter_lower_bound(cells("giant_diameter", {2048: [12.0], 4096: [11.0]}))
        assert not ok and "non-decreasing=False" in detail

    def test_upper_bound_growth_of_three(self):
        y = {n: math.log(n) ** 4 for n in (2048, 4096)}
        for factor, passed in [(3.0, True), (3.01, False)]:
            records = cells("giant_diameter", {2048: [y[2048]], 4096: [factor * y[4096]]})
            assert diameter_upper_bound(records)[0] is passed, factor

    def test_second_component(self):
        assert second_component_bound(cells("second_size", {4096: [63.0] * 3}))[0]
        assert not second_component_bound(cells("second_size", {4096: [64.0] * 3}))[0]
        ceiling = math.log(2048) ** 4
        assert second_component_bound(cells("second_size", {2048: [1.0, 1.0, ceiling]}))[0]
        ok, detail = second_component_bound(cells("second_size", {2048: [1.0, 1.0, ceiling + 1]}))
        assert not ok and "worst cell (n=2048, seed=3" in detail

    def test_core_containment_allows_one_miss(self):
        records = cells("core_in_giant", {2048: [True] * 4 + [False]})
        assert core_clique_and_giant(records) == (
            True, "clique 5/5, containment 4/5 (need >= 4)"
        )
        records[0].core_in_giant = False
        assert not core_clique_and_giant(records)[0]
        assert not core_clique_and_giant(cells("core_clique", {2048: [True, False]}))[0]

    def test_underpass(self):
        tested = {2048: [500_000, 500_000]}
        assert underpass_property(cells("underpass_tested", tested))[0]
        assert not underpass_property(cells("underpass_tested", {2048: [500_000, 499_999]}))[0]
        records = cells("underpass_tested", tested)
        records[1].underpass_violations = 1
        assert not underpass_property(records)[0]

    def test_inner_band_reach_band(self):
        assert inner_band_reach(cells("inner_band_hops", {2048: [0.0] * 3}))[0]
        assert inner_band_reach(cells("inner_band_hops", {2048: [1.0, 3.0]}))[0]
        assert not inner_band_reach(cells("inner_band_hops", {2048: [1.0, 4.0]}))[0]
        # one 0-hop cell pins the band's floor at 0
        ok, detail = inner_band_reach(cells("inner_band_hops", {2**20: [0.0], 2**22: [1.0]}))
        assert not ok and "inside the core" not in detail

    @pytest.mark.parametrize(
        "criterion, field, values, reason",
        [
            (diameter_lower_bound, "giant_diameter", {}, "got 0"),
            (diameter_lower_bound, "giant_diameter", {1: [0.0], 2048: [9.0]}, "n >= 2, got n = 1"),
            (diameter_upper_bound, "giant_diameter", {}, "got 0"),
            (diameter_upper_bound, "giant_diameter", {2048: [9.0, 10.0]}, "2 or more n values, got 1"),
            (diameter_upper_bound, "giant_diameter", {1: [0.0], 2048: [9.0]}, "n >= 2, got n = 1"),
            # each growth ratio divides by the smaller n's median diameter
            (diameter_upper_bound, "giant_diameter", {4: [0.0], 8: [1.0]}, "got 0 at n = [4]"),
            (diameter_upper_bound, "giant_diameter", {4: [0.0], 8: [0.0]}, "got 0 at n = [4, 8]"),
            (second_component_bound, "second_size", {}, "got 0"),
            (second_component_bound, "second_size", {1: [0.0]}, "n >= 2, got n = 1"),
            (inner_band_reach, "inner_band_hops", {}, "got 0"),
            (inner_band_reach, "inner_band_hops", {1: [0.0], 4096: [1.0]}, "n >= 3, got n = 1"),
            # ln ln 2 < 0 made this pass: hops/lnln(n) spans [-2.728, 0.472]
            (inner_band_reach, "inner_band_hops", {2: [1.0], 4096: [1.0]}, "n >= 3, got n = 2"),
            (core_clique_and_giant, "core_clique", {}, "got 0"),
            (underpass_property, "underpass_tested", {}, "got 0"),
        ] + [
            # a failed cell keeps SweepRecord's defaults, which read as a clique
            # inside the giant, nan for every measure and no triples tested
            (criterion, "failed", {2048: [False], 4096: [False, True]},
             "n = 4096, seed = 2 failed")
            for criterion in SWEEP_CRITERIA.values()
        ],
        ids=["3-empty", "3-n1", "4-empty", "4-one-n", "4-n1", "4-zero-then-one", "4-all-zero",
             "5-empty", "5-n1", "11-empty", "11-n1", "11-n2", "6-empty", "7-empty",
             "3-failed", "4-failed", "5-failed", "6-failed", "7-failed", "11-failed"],
    )
    def test_unjudgeable_records_fail_with_the_reason(self, criterion, field, values, reason):
        ok, detail = criterion(cells(field, values))
        assert not ok
        assert detail.startswith("cannot judge: ") and detail.endswith(reason)

# Every line of run_verify(quick=True, seed=123), in order: the draws, and
# so these strings, must not change when a check's body moves, is shared or
# runs in the forked child.
QUICK_SEED_123 = [
    ("geometry/distance-identities",
     "symmetric=True radial_err=0.00e+00 triangle_slack=-8.67e+00 R=18.42"),
    ("geometry/threshold-consistency",
     "10000 radius pairs, edge below threshold / non-edge above"),
    ("geometry/theta-approx-decay", "max relerr*exp(r+y-R) = 0.169 <= 1.0"),
    ("geometry/ball-measure-asymptotic", "relative gap 1.44e-08 at r=R/2, R=50.0"),
    ("graphs/theta-upper-soundness",
     "227 band pairs, max(theta_exact - bound) = -1.000e-09"),
    ("graphs/banded-equals-naive", "4 graphs, 0 edge-set mismatches"),
    ("graphs/diameter-equals-apsp", "5 random graphs, 0 disagreements"),
    ("analysis/underpass", "10000 triples, 0 violations (n=2000)"),
    ("analysis/core-clique", "core size 10"),
    ("analysis/core-in-giant", "core size 10 inside giant=True"),
    ("analysis/core-depth-bound",
     "giant diameter 9 vs 2*core_depth+1 = 11 (depth 5)"),
    ("files/round-trip", "n=500, m=1032, exact round-trip=True"),
    ("sampler/radial-ks", "D=3.58e-03 on 100000 radii"),
    ("sampler/angle-chisquare", "chi2=100.3 over 100 bins"),
    ("sampler/fixed-vs-poisson-ks", "D=1.00e-02 (50000 vs 49700 radii)"),
    ("sampler/poisson-count-moments", "mean=100.25 var=96.8 over 2000 draws"),
    ("sampler/disjoint-independence", "count correlation +0.0147 over 1000 trials"),
    ("measure/lens-monte-carlo",
     "mc=1.014e-03+-3.2e-05 approx=1.056e-03 gap=4.23e-05 tol=1.19e-04 "
     "(1000000 samples)"),
]


class TestUsageErrors:
    # each usage error ends with exit 2 and one stderr line; {dir} is the
    # test's directory, whose coords.tsv and edges.tsv model alpha = 1.5, and
    # whose coords_link.json and list_link.json are hard links
    @pytest.mark.parametrize(
        "argv, line",
        [
            (["generate", "--n", "10", "--seed", "-1", "--out-coords", "{dir}/c.tsv",
              "--out-edges", "{dir}/e.tsv"],
             "hrg generate: seed must be non-negative, got -1"),
            (["generate", "--n", "0", "--out-coords", "{dir}/c.tsv", "--out-edges", "{dir}/e.tsv"],
             "hrg generate: node count must be at least 1, got 0"),
            (["generate", "--n", "3000000000", "--out-coords", "{dir}/c.tsv",
              "--out-edges", "{dir}/e.tsv"],
             "hrg generate: node count must be below 2**31, got 3000000000"),
            (["generate", "--n", "10", "--out-coords", "{dir}/x.tsv",
              "--out-edges", "{dir}/./x.tsv"],
             "hrg generate: --out-coords and --out-edges name the same file"),
            (["generate", "--n", "10", "--out-coords", "{dir}/coords.tsv",
              "--out-edges", "{dir}/coords_link.json"],
             "hrg generate: --out-coords and --out-edges name the same file"),
            (["analyze", "--coords", "{dir}/none.tsv", "--edges", "{dir}/none.tsv",
              "--inner-c", "nan"],
             "hrg analyze: --inner-c must be finite, got nan"),
            (["analyze", "--coords", "{dir}/coords.tsv", "--edges", "{dir}/edges.tsv",
              "--report", "{dir}/./coords.tsv"],
             "hrg analyze: --report names the same file as --coords or --edges"),
            (["analyze", "--coords", "{dir}/coords.tsv", "--edges", "{dir}/edges.tsv",
              "--report", "{dir}/coords_link.json"],
             "hrg analyze: --report names the same file as --coords or --edges"),
            (["analyze", "--coords", "{dir}/coords.tsv", "--edges", "{dir}/edges.tsv"],
             "hrg analyze: inner band needs alpha < 1, got alpha=1.5"),
            (["sweep", "--config", "{dir}/list.json"],
             "hrg sweep: bad config: sweep config must be a JSON object"),
            (["sweep", "--config", "{dir}/list.json", "--out", "{dir}/list.json"],
             "hrg sweep: --out names the same file as --config"),
            (["sweep", "--config", "{dir}/list.json", "--out", "{dir}/list_link.json"],
             "hrg sweep: --out names the same file as --config"),
            (["verify", "--coords", "{dir}/coords.tsv"],
             "hrg verify: --coords and --edges must be given together"),
            (["verify", "--quick", "--seed", "-1"],
             "hrg verify: seed must be non-negative, got -1"),
        ],
        ids=["generate-seed", "generate-model", "generate-nodes", "generate-one-file",
             "generate-hard-link", "analyze-inner-c", "analyze-report-coords",
             "analyze-report-hard-link", "analyze-alpha", "sweep-config", "sweep-out-config",
             "sweep-out-hard-link", "verify-flags", "verify-seed"],
    )
    def test_exit_code_and_stderr_line(self, tmp_path, capsys, argv, line):
        write_fixture(tmp_path, ModelParams(3, 1.5, 0.0), [0.1] * 3, [0.0, 2.0, 4.0], [(0, 1)])
        (tmp_path / "list.json").write_text("[1, 2]")
        os.link(tmp_path / "coords.tsv", tmp_path / "coords_link.json")
        os.link(tmp_path / "list.json", tmp_path / "list_link.json")
        files = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
        assert run_cli([arg.format(dir=tmp_path) for arg in argv]) == 2
        assert capsys.readouterr() == ("", line + "\n")
        # no file written, and none overwritten
        assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == files
        assert_no_child_left()


class TestForkCall:
    def test_results_of_both_sides(self):
        assert fork_call(lambda: [1, 2], lambda: "parent", "probe") == ("parent", [1, 2])
        assert_no_child_left()

    @pytest.mark.parametrize("what", ["result", "exception"])
    def test_unpicklable_child_outcome_is_child_error(self, what):
        def child():
            if what == "result":
                return lambda: None
            exc = RuntimeError("unpicklable")
            exc.hook = lambda: None
            raise exc

        with pytest.raises(RuntimeError, match="^probe exited with code 1$"):
            fork_call(child, lambda: None, "probe")
        assert_no_child_left()

    def test_child_exception_comes_out_ahead_of_the_parents(self):
        def child():
            raise ValueError("child broke")

        def parent():
            raise OSError("parent broke")

        with pytest.raises(ValueError, match="^child broke$") as info:
            fork_call(child, parent, "probe")
        assert str(info.value.__context__) == "parent broke"
        assert_no_child_left()

    def test_killed_child_is_a_runtime_error(self):
        def child():
            os.kill(os.getpid(), signal.SIGKILL)

        with pytest.raises(RuntimeError, match="^probe exited with code -9$") as info:
            fork_call(child, lambda: None, "probe")
        assert not isinstance(info.value, OSError)
        assert_no_child_left()

    def test_point_set_comes_back_read_only(self):
        ps = sample_poisson(ModelParams(500, 0.75, 0.0), 3)
        _, back = fork_call(lambda: ps, lambda: None, "probe")
        assert not back.r.flags.writeable and not back.phi.flags.writeable
        assert np.array_equal(back.r, ps.r) and np.array_equal(back.phi, ps.phi)
        assert (back.params, back.mode, back.seed) == (ps.params, ps.mode, ps.seed)
        assert_no_child_left()

    def test_data_format_error_keeps_its_line(self):
        def child():
            read_edges(io.StringIO("0\t1\n1\t1\n"), 2)

        with pytest.raises(DataFormatError) as info:
            fork_call(child, lambda: None, "probe")
        assert info.value.line_number == 2 and str(info.value) == "line 2: self-loop at id 1"
        assert_no_child_left()


class TestVerify:
    def test_quick_passes_under_a_minute(self, capsys):
        start = time.perf_counter()
        code = run_cli(["verify", "--quick", "--seed", "123"])
        elapsed = time.perf_counter() - start
        out = capsys.readouterr().out
        assert code == 0, out
        assert elapsed < 60.0
        assert "checks passed" in out
        # the lens line has no p-value to print
        assert next(s for s in out.splitlines() if "lens-monte-carlo" in s).endswith("samples)")

    def test_sampler_count_details_frozen(self):
        results, code = run_verify(quick=True, seed=123)
        assert code == 0
        assert [(r.name, r.detail) for r in results] == QUICK_SEED_123
        assert_no_child_left()

    def test_sampler_checks_share_no_seed(self, monkeypatch):
        # every integer seed given to ``default_rng`` goes to the check whose
        # line is made next
        seeds, checks = [], {}
        real_rng = np.random.default_rng

        def recording_rng(seed=None):
            if isinstance(seed, (int, np.integer)):
                seeds.append(int(seed))
            return real_rng(seed)

        def closing(make):
            def line(name, *args):
                checks[name] = set(seeds)
                seeds.clear()
                return make(name, *args)

            return line

        monkeypatch.setattr(np.random, "default_rng", recording_rng)
        monkeypatch.setattr(verify, "_det", closing(verify._det))
        monkeypatch.setattr(verify, "_prob", closing(verify._prob))
        verify._child_checks(True, 1)
        samplers = {name: used for name, used in checks.items() if name.startswith("sampler/")}
        assert len(samplers) == 5 and all(samplers.values())
        shared = [
            (a, b, samplers[a] & samplers[b])
            for a, b in itertools.combinations(samplers, 2)
            if samplers[a] & samplers[b]
        ]
        assert not shared

    def test_line_order_with_input_files_frozen(self, tmp_path):
        # the three input-file lines sit between round-trip and radial-KS
        coords, edges = tmp_path / "c.tsv", tmp_path / "e.tsv"
        assert run_cli(generate_argv(coords, edges, n=500, seed=9)) == 0
        results, code = run_verify(quick=True, seed=123, coords=str(coords), edges=str(edges))
        assert code == 0
        assert [(r.name, r.detail) for r in results] == QUICK_SEED_123[:12] + [
            ("files/input-consistency",
             "edge file matches rebuild from coordinates=True (file m=975, rebuilt m=975)"),
            ("files/input-underpass", "20000 triples, 0 violations"),
            ("files/input-core-clique", "core pairwise adjacency"),
        ] + QUICK_SEED_123[12:]
        assert_no_child_left()

    def test_child_check_error_reraised_and_reaped(self, monkeypatch):
        def broken(seed, trials):
            raise RuntimeError("boom")

        monkeypatch.setattr("hrg.verify._check_poisson_moments", broken)
        with pytest.raises(RuntimeError) as info:
            run_verify(quick=True, seed=1)
        assert info.type is RuntimeError and str(info.value) == "boom"
        assert_no_child_left()

    def test_parent_check_error_propagates_and_reaps(self, monkeypatch):
        def broken(rng, count):
            raise RuntimeError("oracle broke")

        monkeypatch.setattr("hrg.verify.diameter_mismatches", broken)
        with pytest.raises(RuntimeError, match="oracle broke"):
            run_verify(quick=True, seed=1)
        assert_no_child_left()

    def test_child_leaves_inherited_stdout_buffer_alone(self):
        proc = main_after_print(["verify", "--quick", "--seed", "123"])
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert lines.count("before") == 1 and lines[0] == "before"
        assert lines[-1] == "18/18 checks passed"

    def test_core_depth_bound_without_core_passes(self):
        # the quick suite's n = 2,000 graph has an empty core at seed 9
        results, code = run_verify(quick=True, seed=9)
        line = next(r for r in results if r.name == "analysis/core-depth-bound")
        assert code == 0 and len(results) == 18
        assert line.passed and line.detail.startswith("precondition unmet: core of size 0")

    def test_injected_fault_detected(self, tmp_path, capsys):
        coords = tmp_path / "c.tsv"
        edges = tmp_path / "e.tsv"
        assert run_cli(
            [
                "generate", "--n", "500", "--seed", "9",
                "--out-coords", str(coords), "--out-edges", str(edges),
            ]
        ) == 0
        rows = edges.read_text().splitlines()
        edges.write_text("\n".join(rows[1:]) + "\n")  # drop one edge
        code = run_cli(
            ["verify", "--quick", "--seed", "123", "--coords", str(coords), "--edges", str(edges)]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "FAIL" in out and "input-consistency" in out

    def test_reordered_edge_file_passes(self, tmp_path):
        # the same edges in reverse row order, some with swapped ends: the
        # graph is the same, and so is hrg analyze's report
        coords, edges = tmp_path / "c.tsv", tmp_path / "e.tsv"
        assert run_cli(generate_argv(coords, edges, n=500, seed=9)) == 0
        rows = edges.read_text().splitlines()[::-1]
        rows[::2] = ["\t".join(row.split("\t")[::-1]) for row in rows[::2]]
        edges.write_text("\n".join(rows) + "\n")
        results, code = run_verify(quick=True, seed=123, coords=str(coords), edges=str(edges))
        line = next(r for r in results if r.name == "files/input-consistency")
        assert line.passed and code == 0
        assert line.detail == "edge file matches rebuild from coordinates=True (file m=975, rebuilt m=975)"
        assert_no_child_left()

    def test_mismatched_flags_usage_error(self):
        assert run_cli(["verify", "--coords", "only"]) == 2

    def test_negative_seed_is_usage_error(self, capsys):
        assert run_cli(["verify", "--quick", "--seed", "-1"]) == 2
        assert capsys.readouterr().err.startswith("hrg verify: ")
