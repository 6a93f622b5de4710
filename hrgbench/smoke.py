"""Smoke test of the benchmark itself, at tiny sizes (about two minutes).

    python3 hrgbench/smoke.py

Checks that every workload, untraced and traced, prints a last line with
exactly the keys and metric names (and units) ``BENCHMARK.json`` lists and
passes its correctness gate; that a corrupted output of each workload is
counted as a failure; and that without the ``hrg`` sources the command
exits non-zero without printing a result. Exits 1 on the first failure.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402

SIZE = "tiny"


def _run(cwd: Path, *extra: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "hrgbench/run.py", *extra], cwd=cwd, capture_output=True, text=True, timeout=180
    )


def check_output_contract(bench: dict) -> None:
    expected = {
        0: [(m["name"], m["unit"]) for m in bench["end_to_end"]],
        1: [(m["name"], m["unit"]) for m in bench["per_layer"]],
    }
    for workload in workloads.WORKLOADS:
        for trace, names in expected.items():
            proc = _run(ROOT, "--workload", workload, "--seed", "1", "--seconds", "1",
                        "--trace", str(trace), "--size", SIZE)
            assert proc.returncode == 0, f"{workload} trace={trace} exited {proc.returncode}: {proc.stderr[-2000:]}"
            line = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(line) == {"correct", "attempted", "failed", "metrics"}, line.keys()
            assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1, line
            got = [(name, m["unit"]) for name, m in line["metrics"].items()]
            assert got == names, f"{workload} trace={trace}: metric names/units differ from BENCHMARK.json"
            assert all(isinstance(m["value"], (int, float)) for m in line["metrics"].values())
            assert "fail_ratio" in proc.stdout
            print(f"ok  {workload} trace={trace}: {len(got)} metrics, {line['attempted']} attempted")


def _failed(workload: str, summaries: list, work: Path, reference) -> int:
    return checks.evaluate(workload, summaries, work, 1, workloads.SIZES[SIZE],
                           workloads.ALPHA, workloads.C_PARAM, reference)[1]


def check_corruption_counts(work: Path) -> None:
    """Each workload's gate passes on true output and counts a corrupted
    output as one failure: by digest, and for generate and analyze also by
    the seed-independent checks alone."""
    references = checks.load_references()
    workloads.load()
    workloads.prepare("analyze", work, 1, SIZE)
    for workload in workloads.WORKLOADS:
        reference = checks.reference_for(references, SIZE, workload, 1)
        outcome = workloads.run_op(workload, work, 1, SIZE)
        summary = workloads.summarize(workload, work, outcome)
        assert _failed(workload, [summary], work, reference) == 0, f"{workload}: true output failed"
        if workload == "generate":
            n = workloads.SIZES[SIZE]["generate_n"]
            _, r, _ = checks.load_coords(work / "coords.tsv", n, 1, workloads.ALPHA, workloads.C_PARAM)
            hub = str(int(r.argmin()))
            path = work / "edges.tsv"
            lines = path.read_text().splitlines(keepends=True)
            drop = next(k for k, line in enumerate(lines) if hub in line.split())
            path.write_text("".join(lines[:drop] + lines[drop + 1 :]))  # drop one edge of the hub
        elif workload == "analyze":
            path = work / "report.json"
            report = json.loads(path.read_text())
            report["components"]["giant_size"] += 1
            path.write_text(json.dumps(report, indent=2) + "\n")
        elif workload == "sweep":
            path = work / "sweep.csv"
            lines = path.read_text().splitlines(keepends=True)
            cells = lines[1].split(",")
            cells[3] = str(int(cells[3]) + 1)  # column m of the first cell
            lines[1] = ",".join(cells)
            path.write_text("".join(lines))
        if workload == "verify":
            summary["checks"][0]["passed"] = False
        else:
            summary = workloads.summarize(workload, work, outcome)
        assert _failed(workload, [summary], work, reference) == 1, f"{workload}: corruption not counted"
        if workload in ("generate", "analyze"):
            assert _failed(workload, [summary], work, None) == 1, f"{workload}: missed without digests"
        print(f"ok  {workload}: corrupted output counted as 1 failure")


def check_bare_directory(tmp: Path) -> None:
    bare = tmp / "bare"
    shutil.copytree(HERE, bare / "hrgbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = _run(bare, "--workload", "generate", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0, "ran without the hrg sources"
    assert '"correct"' not in proc.stdout, "printed a result without the hrg sources"
    print(f"ok  without sources: exit {proc.returncode}, no result")


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    tmp = ROOT / ".hrgbench_work" / "smoke"
    shutil.rmtree(tmp, ignore_errors=True)
    (tmp / "work").mkdir(parents=True)
    try:
        check_bare_directory(tmp)
        check_corruption_counts(tmp / "work")
        check_output_contract(bench)
    except AssertionError as exc:
        print(f"FAIL {exc}")
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print("smoke test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
