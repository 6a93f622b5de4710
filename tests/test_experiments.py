"""Tests for file formats, the CLI, the sweep harness, and verify."""

import json
import time

import numpy as np
import pytest

from hrg.cli import main
from hrg.experiments import (
    CSV_COLUMNS,
    SweepConfig,
    run_sweep,
    write_sweep_csv,
)
from hrg.files import (
    DataFormatError,
    build_report,
    read_coords,
    read_edges,
    write_coords,
    write_edges,
)
from hrg.geometry import ModelParams, theta_exact
from hrg.graphgen import build_banded
from hrg.sampling import sample_fixed


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
        assert np.array_equal(rebuilt.edges, file_edges)
        assert np.array_equal(ps.r, sample_fixed(ModelParams(10, 0.75, 0.0), 7).r)

    def test_single_node(self, tmp_path):
        coords = tmp_path / "c.tsv"
        edges = tmp_path / "e.tsv"
        code = run_cli(
            ["generate", "--n", "1", "--out-coords", str(coords), "--out-edges", str(edges)]
        )
        assert code == 0
        assert len(coords.read_text().splitlines()) == 2
        assert edges.read_text() == ""

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

    def test_io_failure_exit_code(self, tmp_path):
        code = run_cli(
            [
                "generate", "--n", "5",
                "--out-coords", str(tmp_path / "missing" / "c.tsv"),
                "--out-edges", str(tmp_path / "e.tsv"),
            ]
        )
        assert code == 3

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
        ],
        ids=["negative-seed", "negative-radius", "nan-c", "infinite-alpha", "alpha-r-overflow"],
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
        # the band diagnostics split the circle into n sectors, and n = 10^12
        # sectors would take terabytes as a histogram
        from hrg.sampling import MODE_POISSON, PointSet

        params = ModelParams(10**12, 0.75, 0.0)
        ps = PointSet(params, np.array([1.0, 2.0, 3.0]), np.array([0.5, 1.5, 2.5]), MODE_POISSON, 1)
        coords, edges = tmp_path / "c.tsv", tmp_path / "e.tsv"
        with open(coords, "w") as fh:
            write_coords(fh, ps)
        edges.write_text("")
        assert run_cli(["analyze", "--coords", str(coords), "--edges", str(edges)]) == 0
        bands = json.loads(capsys.readouterr().out)["bands"]
        assert bands["sectors"] == 10**12
        assert bands["max_nodes_in_window"] == 1

    def test_nonpositive_alpha_header_is_data_error(self, tmp_path, capsys):
        coords, edges = write_fixture(tmp_path, ModelParams(3, 0.75, 0.0), [0.1] * 3, [0.0, 2.0, 4.0], [])
        text = coords.read_text().replace("alpha=0.75", "alpha=-0.5", 1)
        coords.write_text(text)
        assert run_cli(["analyze", "--coords", str(coords), "--edges", str(edges)]) == 4
        err = capsys.readouterr().err
        assert "line 1" in err and "alpha" in err

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
        assert np.array_equal(build_banded(ps_back).edges, g.edges)


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
        ]:
            config = self.make_config(tmp_path, **overrides)
            assert run_cli(["sweep", "--config", str(config)]) == 2, overrides

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


class TestVerify:
    def test_quick_passes_under_a_minute(self, capsys):
        start = time.perf_counter()
        code = run_cli(["verify", "--quick", "--seed", "123"])
        elapsed = time.perf_counter() - start
        out = capsys.readouterr().out
        assert code == 0, out
        assert elapsed < 60.0
        assert "checks passed" in out

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

    def test_mismatched_flags_usage_error(self):
        assert run_cli(["verify", "--coords", "only"]) == 2

    def test_negative_seed_is_usage_error(self, capsys):
        assert run_cli(["verify", "--quick", "--seed", "-1"]) == 2
        assert capsys.readouterr().err.startswith("hrg verify: ")
