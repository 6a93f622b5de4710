"""Run-to-run spread of the end-to-end metrics, and the recorded baseline.

    python3 hrgbench/stability.py --seeds 1-10 [--workloads generate,sweep] [--out FILE]

Runs ``run.py`` once per seed and workload (``--trace 0``), then prints per
metric the median, the quartiles (``statistics.quantiles(values, n=4)``)
and the spread, (q3 - q1) / median, beside the bound from
``BENCHMARK.json``. With ``--out`` it also runs each workload traced at the
default seed and writes everything, with machine information, to FILE.
Exits 1 if a spread other than that of ``setup_s`` exceeds its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _run(workload: str, seed: int, trace: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "hrgbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=200,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi) + 1)) if hi else [int(s) for s in text.split(",")]


def _machine() -> dict:
    import numpy
    import scipy

    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True).stdout.strip()
    except OSError:
        sha = ""
    return {
        "cpus": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": sha or "unknown",
    }


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", default="1-10", help="'a-b' or a comma list")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--out", help="write the baseline (spreads plus traced runs) here")
    args = parser.parse_args()
    seeds = _seeds(args.seeds)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report: dict = {"seconds": bench["run_seconds"], "seeds": seeds, "workloads": {}}
    worst_ok = True
    for workload in args.workloads.split(","):
        runs = [_run(workload, s, 0, bench["run_seconds"]) for s in seeds]
        failed = sum(r["failed"] for r in runs)
        attempted = sum(r["attempted"] for r in runs)
        entry: dict = {"attempted": attempted, "failed": failed, "metrics": {}}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            ok = spread <= bound or name == "setup_s"
            worst_ok &= ok
            entry["metrics"][name] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "bound": bound,
                                      "unit": runs[0]["metrics"][name]["unit"], "values": values}
            mark = "ok " if spread <= bound / 3 else ("ok*" if ok else "BAD")
            print(f"{mark} {workload:9s} {name:12s} median {med:9.4g}  q1 {q1:9.4g}  q3 {q3:9.4g}  "
                  f"spread {spread:.3f}  bound {bound}", flush=True)
        print(f"    {workload:9s} fail_ratio {failed}/{attempted}", flush=True)
        if args.out:
            traced = _run(workload, 1, 1, bench["run_seconds"])
            entry["traced_seed_1"] = {k: v["value"] for k, v in traced["metrics"].items()}
        report["workloads"][workload] = entry
    if args.out:
        report["machine"] = _machine()
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print("all spreads within bounds" if worst_ok else "a spread exceeds its bound")
    return 0 if worst_ok else 1


if __name__ == "__main__":
    sys.exit(main())
