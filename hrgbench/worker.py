"""One benchmark process: set-up, the untraced timed phase, or the traced run.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's
``src``; writes its result as JSON to ``--result``. Keeping each role in a
fresh process makes set-up include the import, and makes the peak RSS of
the timed phase that of a process that did nothing else.
"""

from __future__ import annotations

import argparse
import json
import resource
import time
from pathlib import Path

import speed
import workloads

MAX_OPS = 1000


def _check_source(root: Path) -> None:
    import hrg

    where = Path(hrg.__file__).resolve()
    if (root / "src") not in where.parents:
        raise SystemExit(f"hrg imported from {where}, not from {root / 'src'}")


def timed_phase(args, work: Path) -> dict:
    """Repeat the operation while the next one is expected to end within
    ``--seconds`` of measured time (at least once), with the speed kernel
    before the first operation and after each one."""
    calibrator = speed.Calibrator()
    kernel = [calibrator.measure()]
    times: list[float] = []
    summaries: list[dict] = []
    while True:
        t0 = time.perf_counter()
        outcome = workloads.run_op(args.workload, work, args.seed, args.size)
        times.append(time.perf_counter() - t0)
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        kernel.append(calibrator.measure())
        summaries.append(workloads.summarize(args.workload, work, outcome))
        if sum(times) + times[-1] > args.seconds or len(times) >= MAX_OPS:
            break
    return {"times": times, "kernel": kernel, "summaries": summaries, "peak_rss_mb": peak_kb / 1024.0}


def traced_phase(args, work: Path) -> dict:
    """One operation with every hooked layer timed; spans go to ``--spans``."""
    import layers
    import tracer

    calibrator = speed.Calibrator()
    recorder = tracer.Recorder()
    kernel = [calibrator.measure()]
    with tracer.instrument(recorder):
        t0 = time.perf_counter()
        outcome = workloads.run_op(args.workload, work, args.seed, args.size)
        traced_wall = time.perf_counter() - t0
    kernel.append(calibrator.measure())
    summary = workloads.summarize(args.workload, work, outcome)
    metrics = layers.layer_metrics(recorder, traced_wall)
    Path(args.spans).write_text(json.dumps(recorder.dump()), encoding="utf-8")
    return {"summaries": [summary], "metrics": metrics, "scaled_wall": speed.scaled([traced_wall], kernel)[0]}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--role", choices=("prepare", "time", "trace"), required=True)
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", choices=tuple(workloads.SIZES), required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--root", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--spans")
    args = parser.parse_args()
    work = Path(args.work)
    _check_source(Path(args.root).resolve())
    workloads.load()
    if args.role == "prepare":
        workloads.prepare(args.workload, work, args.seed, args.size)
        result: dict = {}
    else:
        result = timed_phase(args, work) if args.role == "time" else traced_phase(args, work)
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main()
