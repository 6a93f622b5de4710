"""Record the reference digests the correctness gate compares against.

    python3 hrgbench/record_references.py

Runs every workload once per size at the default seed and writes
``references.json``: the coordinate and edge TSV digests of ``generate``,
the input and report digests of ``analyze``, and the per-row digests of
the sweep CSV without its ``*_ms`` columns. Re-record only when an output
format changes on purpose, and say so in the change that does it.
"""

from __future__ import annotations

import argparse
import json

import checks
import run
import workloads


def main() -> None:
    references: dict = {}
    for size in workloads.SIZES:
        entry = references.setdefault(size, {})
        for workload in ("generate", "analyze", "sweep"):
            args = argparse.Namespace(workload=workload, seed=checks.DEFAULT_SEED, seconds=0.0, trace=0, size=size)
            result = run.run_workload(args)
            last = result["summaries"][-1]
            if workload == "sweep":
                entry[workload] = last["rows"]
            else:
                entry[workload] = {str(checks.DEFAULT_SEED): {k: v for k, v in last.items() if k != "rc"}}
            print(f"{size} {workload}: recorded; {result['failed']}/{result['attempted']} failed the previous references")
    checks.REFERENCES.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
