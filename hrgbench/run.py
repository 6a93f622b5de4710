"""hrg benchmark: four single-process workloads, timed end to end and per layer.

Run from the root of a checkout (Python 3.10+, numpy, scipy; nothing to build):

    python3 hrgbench/run.py --workload generate --seed 1 --seconds 10 --trace 0
    python3 hrgbench/run.py --workload all      # every workload, one table

Workloads (alpha = 0.75, C = 0, fixed mode, jobs = 1); each run repeats
one operation while the next is expected to end within ``--seconds``:

* generate -- ``hrg generate --n 131072``: sampling, the band/window
  builder, the CSR build and the TSV writers.
* analyze  -- ``hrg analyze`` on the TSVs of an n = 2^17 graph written
  during set-up: TSV readers, CSR build and ``component_report``.
* sweep    -- ``run_sweep`` over n = 2^11..2^16, 1 seed, 5000 underpass
  trials: the analysis layer on many small graphs. ``SweepConfig`` always
  runs seeds 1..k, so this workload is the same for every ``--seed``.
* verify   -- ``run_verify(quick=True, seed=1)``: the underpass
  check, the oracles, Monte Carlo measures and sampler diagnostics. Like
  ``sweep`` it is the same for every ``--seed`` (see ``workloads.py``).

Each phase runs in its own process: set-up (import plus input files,
repeated ``SETUP_REPEATS`` times), the untraced timed phase, and with
``--trace 1`` one traced operation whose spans are written to
``.hrgbench_work/trace-<workload>-seed<seed>.json``. ``setup_s`` and
``wall_s`` are medians of times scaled to a reference machine speed (see
``speed.py``); the unscaled medians are printed in the table.
``peak_rss_mb`` is the peak RSS of the timed-phase process. The last
stdout line is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (end-to-end metrics with ``--trace 0``, per-layer metrics with
``--trace 1``); ``fail_ratio`` = failed / attempted is printed above it.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import layers
import speed
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_ROOT = ROOT / ".hrgbench_work"
SETUP_REPEATS = 3
# Every invocation must end within 180 s; leave room for the checks.
DEADLINE_S = 165.0

END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB")]


class BenchError(Exception):
    pass


def _spawn(role: str, args, work: Path, deadline: float, spans: Path | None = None) -> tuple[dict, float]:
    """Run one worker process to completion; returns (result, wall seconds)."""
    result_path = work / f"{role}-result.json"
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--role", role, "--workload", args.workload,
        "--seed", str(args.seed), "--size", args.size, "--work", str(work), "--root", str(ROOT),
        "--result", str(result_path), "--seconds", str(args.seconds),
    ]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    remaining = deadline - time.perf_counter()
    if remaining <= 0:
        raise BenchError(f"no time left for the {role} phase")
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{role} phase of {args.workload} exceeded the time limit") from None
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        tail = "\n".join(proc.stderr.strip().splitlines()[-15:])
        raise BenchError(f"{role} phase of {args.workload} exited {proc.returncode}:\n{tail}")
    return json.loads(result_path.read_text(encoding="utf-8")), wall


def run_workload(args) -> dict:
    """Set up, time, optionally trace, and check one workload."""
    deadline = time.perf_counter() + DEADLINE_S
    work = WORK_ROOT / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        calibrator = speed.Calibrator()
        kernel = [calibrator.measure()]
        setup = []
        for _ in range(1 if args.trace else SETUP_REPEATS):
            setup.append(_spawn("prepare", args, work, deadline)[1])
            kernel.append(calibrator.measure())
        timed, _ = _spawn("time", args, work, deadline)
        summaries = timed["summaries"]
        wall = statistics.median(speed.scaled(timed["times"], timed["kernel"]))
        raw = {"setup_s": statistics.median(setup), "wall_s": statistics.median(timed["times"])}
        if args.trace:
            spans = WORK_ROOT / f"trace-{args.workload}-seed{args.seed}.json"
            traced, _ = _spawn("trace", args, work, deadline, spans)
            summaries = summaries + traced["summaries"]
            metrics = dict(traced["metrics"])
            metrics["trace.traced_wall_s"] = traced["scaled_wall"]
            metrics["trace.untraced_wall_s"] = wall
            metrics["trace.overhead_s"] = traced["scaled_wall"] - wall
            units = layers.PER_LAYER
        else:
            setup_s = statistics.median(speed.scaled(setup, kernel))
            metrics = {"setup_s": setup_s, "wall_s": wall, "peak_rss_mb": timed["peak_rss_mb"]}
            units = END_TO_END
        reference = checks.reference_for(checks.load_references(), args.size, args.workload, args.seed)
        attempted, failed, problems = checks.evaluate(
            args.workload, summaries, work, args.seed, workloads.SIZES[args.size],
            workloads.ALPHA, workloads.C_PARAM, reference,
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units},
        "problems": problems,
        "summaries": summaries,
        "ops": len(timed["times"]),
        "raw": raw,
    }


def _print_table(workload: str, result: dict) -> None:
    ratio = result["failed"] / result["attempted"]
    print(f"{workload}: {result['ops']} timed op(s), {result['attempted']} {workloads.UNIT[workload]}(s) attempted")
    for name, m in result["metrics"].items():
        print(f"  {workload:9s} {name:40s} {m['value']:.6g} {m['unit']}")
    for name, value in result["raw"].items():
        print(f"  {workload:9s} {'unscaled ' + name:40s} {value:.6g} s")
    print(f"  {workload:9s} {'fail_ratio':40s} {ratio:.6g} ({result['failed']}/{result['attempted']})")
    for line in result["problems"][:20]:
        print(f"  PROBLEM {line}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=workloads.WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=checks.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(workloads.SIZES), default="full",
                        help="input sizes; 'tiny' is for the smoke test")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (ROOT / "src" / "hrg" / "__init__.py").is_file():
        print(f"hrg sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        try:
            results[name] = run_workload(argparse.Namespace(**{**vars(args), "workload": name}))
        except BenchError as exc:
            print(f"benchmark error: {exc}", file=sys.stderr)
            return 1
        _print_table(name, results[name])
    if len(names) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()}
    line = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
