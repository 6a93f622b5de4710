"""The four benchmark workloads: their inputs, their timed operation, and
the digest of what that operation wrote.

Every workload runs in one process with one job, through ``hrg.cli.main``
or the public API, at alpha = 0.75, C = 0, fixed mode. ``hrg`` is imported
lazily so the orchestrating process can read the sizes without it.
"""

from __future__ import annotations

import contextlib
import io
from pathlib import Path

from checks import sha256_file, sweep_row_digests

ALPHA = 0.75
C_PARAM = 0.0
INNER_C = 1.0

# "full" is what the benchmark measures; "tiny" keeps every code path and
# exists for the smoke test.
SIZES = {
    "full": {
        "generate_n": 2**17,
        "analyze_n": 2**17,
        "sweep": {"n_values": tuple(2**k for k in range(11, 17)), "seeds": 1, "underpass_trials": 5000},
    },
    "tiny": {
        "generate_n": 2048,
        "analyze_n": 2048,
        "sweep": {"n_values": (256, 512), "seeds": 2, "underpass_trials": 200},
    },
}

WORKLOADS = ("generate", "analyze", "sweep", "verify")

# The verify suite runs at this seed whatever the benchmark seed: its
# statistical checks fail by design at the 0.1% level each, and its cost
# follows the hubs of the graphs a seed draws (+-12% between seeds).
VERIFY_SEED = 1

# What one attempted operation is, per workload.
UNIT = {"generate": "graph", "analyze": "report", "sweep": "cell", "verify": "check"}


def _cli(argv: list[str]) -> int:
    from hrg.cli import main

    with contextlib.redirect_stdout(io.StringIO()):
        return main(argv)


def _generate_argv(n: int, seed: int, coords: Path, edges: Path) -> list[str]:
    return [
        "generate", "--n", str(n), "--alpha", repr(ALPHA), "--c-param", repr(C_PARAM),
        "--seed", str(seed), "--out-coords", str(coords), "--out-edges", str(edges),
    ]


def sweep_config(size: str):
    from hrg.experiments import SweepConfig

    return SweepConfig(alpha=ALPHA, C=C_PARAM, inner_c=INNER_C, jobs=1, **SIZES[size]["sweep"])


def load() -> None:
    """Import every module the workloads call, so no timer includes it."""
    import hrg.cli  # noqa: F401
    import hrg.experiments  # noqa: F401
    import hrg.files  # noqa: F401
    import hrg.verify  # noqa: F401


def prepare(workload: str, work: Path, seed: int, size: str) -> None:
    """Set-up after :func:`load`: write the workload's input files."""
    if workload == "analyze":
        n = SIZES[size]["analyze_n"]
        code = _cli(_generate_argv(n, seed, work / "in_coords.tsv", work / "in_edges.tsv"))
        if code != 0:
            raise RuntimeError(f"hrg generate exited {code} while preparing inputs")


def run_op(workload: str, work: Path, seed: int, size: str):
    """The timed operation; returns what :func:`summarize` needs."""
    if workload == "generate":
        n = SIZES[size]["generate_n"]
        return _cli(_generate_argv(n, seed, work / "coords.tsv", work / "edges.tsv"))
    if workload == "analyze":
        return _cli([
            "analyze", "--coords", str(work / "in_coords.tsv"), "--edges", str(work / "in_edges.tsv"),
            "--report", str(work / "report.json"), "--inner-c", repr(INNER_C),
        ])
    if workload == "sweep":
        from hrg.experiments import run_sweep, write_sweep_csv

        records = run_sweep(sweep_config(size))
        with open(work / "sweep.csv", "w", encoding="utf-8") as fh:
            write_sweep_csv(records, fh)
        return records
    if workload == "verify":
        from hrg.verify import run_verify

        results, _code = run_verify(quick=True, seed=VERIFY_SEED)
        return results
    raise ValueError(f"unknown workload {workload!r}")


def summarize(workload: str, work: Path, outcome) -> dict:
    """JSON-able record of one operation's outputs, taken after the timer."""
    if workload == "generate":
        return {"rc": outcome, "coords": sha256_file(work / "coords.tsv"), "edges": sha256_file(work / "edges.tsv")}
    if workload == "analyze":
        return {
            "rc": outcome,
            "coords": sha256_file(work / "in_coords.tsv"),
            "edges": sha256_file(work / "in_edges.tsv"),
            "report": sha256_file(work / "report.json"),
        }
    if workload == "sweep":
        cells = [
            {
                "key": f"{r.n},{r.seed}",
                "failed": bool(r.failed),
                "error": r.error,
                "underpass_violations": int(r.underpass_violations),
                "core_clique": bool(r.core_clique),
            }
            for r in outcome
        ]
        text = (work / "sweep.csv").read_text(encoding="utf-8")
        return {"cells": cells, "rows": sweep_row_digests(text)}
    if workload == "verify":
        return {"checks": [{"name": r.name, "passed": bool(r.passed), "detail": r.detail} for r in outcome]}
    raise ValueError(f"unknown workload {workload!r}")
