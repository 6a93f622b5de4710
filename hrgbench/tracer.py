"""Span and counter recorder for the traced benchmark run.

Spans are timed from the benchmark's side: :func:`instrument` replaces
the public names listed in ``HOOKS`` with timing wrappers in every loaded
``hrg`` module namespace, so the workload makes exactly the calls, in
exactly the order, that its untraced run makes. Spans (name, start, end,
parent) and counters stay in memory and are written out once, at the end.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time


class Recorder:
    """In-memory spans and counters of one traced run."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counters: dict[str, float] = {}
        self.built: list = []  # point sets handed to build_banded
        self.missing: list[str] = []
        self._stack: list[int] = []

    def add(self, name: str, value: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def maximum(self, name: str, value: float) -> None:
        self.counters[name] = max(self.counters.get(name, value), value)

    def wrap(self, name: str, fn, on_result=None):
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = recorder._stack[-1] if recorder._stack else -1
            span = [name, time.perf_counter(), 0.0, parent]
            recorder._stack.append(len(recorder.spans))
            recorder.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                recorder._stack.pop()
            if on_result is not None:
                on_result(recorder, args, result)
            return result

        return traced

    def totals(self) -> dict[str, float]:
        """Inclusive seconds per span name."""
        out: dict[str, float] = {}
        for name, start, end, _ in self.spans:
            out[name] = out.get(name, 0.0) + (end - start)
        return out

    def self_times(self) -> list[float]:
        """Per span: its duration minus the time its direct children cover."""
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def dump(self) -> dict:
        t0 = self.spans[0][1] if self.spans else 0.0
        return {
            "spans": [
                {"name": n, "start": s - t0, "end": e - t0, "parent": p}
                for n, s, e, p in self.spans
            ],
            "counters": self.counters,
            "missing_hooks": self.missing,
        }


def _stream_bytes(stream) -> int:
    try:
        return int(stream.tell())
    except (OSError, ValueError, AttributeError):
        return 0


def _on_build_banded(rec: Recorder, args, graph) -> None:
    rec.add("graphgen.edges", graph.m)
    rec.built.append(args[0])


def _on_write(rec: Recorder, args, _result) -> None:
    rec.add("files.bytes_written", _stream_bytes(args[0]))


def _on_read(rec: Recorder, args, _result) -> None:
    rec.add("files.bytes_read", _stream_bytes(args[0]))


def _on_component_report(rec: Recorder, _args, report) -> None:
    rec.add("analysis.components", len(report.sizes))
    rec.maximum("analysis.giant_diameter", report.giant_diameter)


def _on_underpass(rec: Recorder, _args, result) -> None:
    rec.add("analysis.underpass.tested", result.tested)
    rec.add("analysis.underpass.attempts", result.attempts)


def _on_run_sweep(rec: Recorder, _args, records) -> None:
    rec.add("experiments.cells", len(records))
    rec.add("experiments.cells_failed", sum(1 for r in records if r.failed))
    rec.add("experiments.cell_gen_ms.sum", sum(r.gen_ms for r in records))
    rec.add("experiments.cell_analysis_ms.sum", sum(r.analysis_ms for r in records))


def _on_run_verify(rec: Recorder, _args, outcome) -> None:
    results, _code = outcome
    rec.add("verify.checks", len(results))
    rec.add("verify.checks_failed", sum(1 for r in results if not r.passed))


# (module, attribute path, result hook). Only calls made a handful to a few
# thousand times per workload are wrapped; per-triple helpers such as
# ``angle_gaps`` would let the wrapper cost swamp the work it times.
HOOKS = [
    ("cli", "main", None),
    ("experiments", "run_sweep", _on_run_sweep),
    ("experiments", "write_sweep_csv", None),
    ("verify", "run_verify", _on_run_verify),
    ("files", "write_coords", _on_write),
    ("files", "write_edges", _on_write),
    ("files", "read_coords", _on_read),
    ("files", "read_edges", _on_read),
    ("files", "build_report", None),
    ("files", "dump_report", None),
    ("sampling", "sample_fixed", None),
    ("sampling", "sample_poisson", None),
    ("sampling", "disjointness_check", None),
    ("graphgen", "build_banded", _on_build_banded),
    ("graphgen", "build_naive", None),
    ("graphgen", "BandIndex.build", None),
    ("graphgen", "Graph.from_edge_array", None),
    ("geometry", "edge_mask", None),
    ("geometry", "theta_exact", None),
    ("geometry", "mu_monte_carlo", None),
    ("analysis", "component_report", _on_component_report),
    ("analysis", "connected_components", None),
    ("analysis", "exact_diameter", None),
    ("analysis", "bfs_distances", None),
    ("analysis", "degree_stats", None),
    ("analysis", "band_diagnostics", None),
    ("analysis", "max_empty_sector_run", None),
    ("analysis", "check_underpass", _on_underpass),
    ("analysis", "check_core_clique", None),
    ("analysis", "inner_band_hops", None),
]


@contextlib.contextmanager
def instrument(recorder: Recorder):
    """Swap every hooked public name for its timing wrapper; restore on exit.

    A hook whose name no longer exists is skipped and listed in
    ``recorder.missing``, so a renamed function shows up as a missing layer
    rather than as a crash.
    """
    for mod_name in {m for m, _, _ in HOOKS}:
        with contextlib.suppress(ImportError):
            importlib.import_module(f"hrg.{mod_name}")
    modules = [m for name, m in sys.modules.items() if name == "hrg" or name.startswith("hrg.")]
    undo: list = []
    try:
        for mod_name, path, hook in HOOKS:
            module = sys.modules.get(f"hrg.{mod_name}")
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            if owner is None or not hasattr(owner, attr):
                recorder.missing.append(f"{mod_name}.{path}")
                continue
            wrapped = recorder.wrap(f"{mod_name}.{path}", getattr(owner, attr), hook)
            if owner_name:  # a classmethod: bind through the class, as callers do
                undo.append((owner, attr, owner.__dict__[attr]))
                setattr(owner, attr, staticmethod(wrapped))
                continue
            original = getattr(owner, attr)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        undo.append((mod, key, value))
                        setattr(mod, key, wrapped)
        yield recorder
    finally:
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)
