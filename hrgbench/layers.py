"""Per-layer metrics of the traced run.

Each name below is emitted by every workload with ``--trace 1``; a layer a
workload does not reach reads 0. Timings are inclusive seconds summed over
all calls of that name; ``<module>.self_s`` is the module's self time (its
spans minus the spans they caused), so the dominant layer of a workload is
the largest of those.
"""

from __future__ import annotations

import math

MODULES = ("sampling", "graphgen", "geometry", "analysis", "files", "experiments", "verify", "cli")

# Spans whose summed duration is reported as ``<name>.s``.
TIMED = [
    "sampling.sample_fixed",
    "graphgen.build_banded",
    "graphgen.BandIndex.build",
    "graphgen.Graph.from_edge_array",
    "files.write_coords",
    "files.write_edges",
    "files.read_coords",
    "files.read_edges",
    "files.build_report",
    "analysis.component_report",
    "analysis.connected_components",
    "analysis.exact_diameter",
    "analysis.check_underpass",
    "analysis.degree_stats",
    "analysis.band_diagnostics",
    "analysis.check_core_clique",
    "analysis.inner_band_hops",
    "experiments.run_sweep",
    "verify.run_verify",
    "cli.main",
]

COUNTS = [
    "graphgen.edges",
    "graphgen.candidates",
    "graphgen.full_circle_pairs",
    "files.bytes_written",
    "files.bytes_read",
    "analysis.components",
    "analysis.giant_diameter",
    "analysis.underpass.tested",
    "analysis.underpass.attempts",
    "experiments.cells",
    "experiments.cells_failed",
    "verify.checks",
    "verify.checks_failed",
    "trace.hooks_missing",
]

# Every per-layer metric, in output order, with its unit.
PER_LAYER = (
    [(f"{name}.s", "s") for name in TIMED]
    + [("graphgen.window_and_test.s", "s")]  # derived: build_banded - BandIndex.build - CSR build
    + [(f"{m}.self_s", "s") for m in MODULES]
    + [(name, "B" if name.startswith("files.bytes") else "count") for name in COUNTS]
    + [
        ("graphgen.candidates_per_edge", "ratio"),
        ("analysis.underpass.tested_per_attempt", "ratio"),
        ("experiments.cell_gen_ms.sum", "ms"),
        ("experiments.cell_analysis_ms.sum", "ms"),
        ("trace.traced_wall_s", "s"),
        ("trace.untraced_wall_s", "s"),
        ("trace.overhead_s", "s"),
        ("trace.coverage", "ratio"),
    ]
)


def candidate_counts(ps) -> tuple[int, int]:
    """(candidate pairs, full-circle band pairs) the band/window builder
    tests on ``ps``, counted from outside with the public ``BandIndex.build``
    and ``theta_upper``: per band pair, ``searchsorted`` gives each node's
    window size and no pair is materialized. A band paired with itself
    counts each unordered pair once, as the builder keeps only u < v.
    """
    import numpy as np
    from hrg.graphgen import BandIndex, theta_upper

    bands = BandIndex.build(ps)
    R = ps.params.R
    candidates = full_circle = 0
    for i in range(1, bands.count + 1):
        centers = bands.angles[i - 1]
        if centers.size == 0:
            continue
        for j in range(i, bands.count + 1):
            angles = bands.angles[j - 1]
            if angles.size == 0:
                continue
            width = theta_upper(i, j, R)
            if width >= math.pi:
                full_circle += 1
                candidates += centers.size * (centers.size - 1) // 2 if i == j else centers.size * angles.size
                continue
            doubled = np.concatenate((angles, angles + 2.0 * math.pi))
            lo_val = centers - width
            shift = np.where(lo_val < 0.0, 2.0 * math.pi, 0.0)
            lo = np.searchsorted(doubled, lo_val + shift, side="left")
            hi = np.searchsorted(doubled, centers + width + shift, side="right")
            total = int((hi - lo).sum())
            candidates += (total - centers.size) // 2 if i == j else total
    return candidates, full_circle


def layer_metrics(recorder, traced_wall: float) -> dict[str, float]:
    """Every per-layer metric of one traced operation except the two that
    need the untraced run (``trace.untraced_wall_s``, ``trace.overhead_s``)."""
    totals = recorder.totals()
    out = {f"{name}.s": totals.get(name, 0.0) for name in TIMED}

    derived = 0.0
    names = [s[0] for s in recorder.spans]
    for name, start, end, parent in recorder.spans:
        if name == "graphgen.build_banded":
            derived += end - start
        elif parent >= 0 and names[parent] == "graphgen.build_banded" and name in (
            "graphgen.BandIndex.build",
            "graphgen.Graph.from_edge_array",
        ):
            derived -= end - start
    out["graphgen.window_and_test.s"] = derived

    own = recorder.self_times()
    for m in MODULES:
        out[f"{m}.self_s"] = sum(t for t, s in zip(own, recorder.spans) if s[0].split(".")[0] == m)

    counters = dict(recorder.counters)
    for ps in recorder.built:
        cand, full = candidate_counts(ps)
        counters["graphgen.candidates"] = counters.get("graphgen.candidates", 0) + cand
        counters["graphgen.full_circle_pairs"] = counters.get("graphgen.full_circle_pairs", 0) + full
    counters["trace.hooks_missing"] = len(recorder.missing)
    for name in COUNTS:
        out[name] = counters.get(name, 0)
    for name in ("experiments.cell_gen_ms.sum", "experiments.cell_analysis_ms.sum"):
        out[name] = counters.get(name, 0.0)

    def ratio(num: str, den: str) -> float:
        return out[num] / out[den] if out[den] else 0.0

    out["graphgen.candidates_per_edge"] = ratio("graphgen.candidates", "graphgen.edges")
    out["analysis.underpass.tested_per_attempt"] = ratio("analysis.underpass.tested", "analysis.underpass.attempts")
    out["trace.traced_wall_s"] = traced_wall
    top = sum(end - start for _, start, end, parent in recorder.spans if parent < 0)
    out["trace.coverage"] = top / traced_wall if traced_wall > 0 else 0.0
    return out
