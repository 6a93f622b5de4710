"""Sweep harness: run (n, seed) cells, collect per-cell records, emit CSV.

A sweep cell samples a point set, builds the graph with the banded
generator, runs :func:`~hrg.analysis.analyze_graph` and, when asked, the
underpass check. Cells are independent; with
``jobs > 1`` they run in a process pool of at most one worker per cell,
and the output row order is by (n, seed) regardless of completion order.
All fields except the ``*_ms`` timings are deterministic functions of the
config. ``SWEEP_CRITERIA`` maps each acceptance criterion that reads a
sweep, by its printed label, to its function of the records: (passed, detail).
"""

from __future__ import annotations

import itertools
import json
import math
import numbers
import time
from dataclasses import dataclass, fields
from operator import attrgetter
from typing import TextIO

from .analysis import analyze_graph, check_underpass, inner_band_radius
from .geometry import ModelParams
from .graphgen import build_banded
from .sampling import MODE_FIXED, MODE_POISSON, sample_fixed, sample_poisson

__all__ = ["SweepConfig", "SweepRecord", "run_sweep", "write_sweep_csv", "CSV_COLUMNS",
           "SWEEP_CRITERIA", "medians_by_n"]

# The analysis columns of a sweep row in CSV order, each with its reader of
# the cell's GraphAnalysis. A new column is one entry here plus one
# SweepRecord field of the same name.
ANALYSIS_COLUMNS = {
    "mean_degree": attrgetter("degrees.mean_degree"),
    "beta_hat": attrgetter("degrees.beta_hat"),
    "giant_size": attrgetter("components.giant_size"),
    "second_size": attrgetter("components.second_size"),
    "giant_diameter": attrgetter("components.giant_diameter"),
    "max_empty_run": attrgetter("bands.max_empty_sector_run"),
    "inner_band_hops": attrgetter("reach.max_hops"),
}

CSV_COLUMNS = ["n", "seed", "R", "m", *ANALYSIS_COLUMNS, "gen_ms", "analysis_ms"]


def _integer(name: str, value) -> int:
    """``value`` as an int; floats and bools are refused, not truncated."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _real(name: str, value) -> float:
    """``value`` as a float; bools and non-numbers are refused."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a number, got {value!r}")
    return float(value)


@dataclass(frozen=True)
class SweepConfig:
    """One sweep: the n values, model constants, seeds per n, and underpass trials.

    Seeds run 1..seeds for every n. ``underpass_trials`` is the per-cell
    triple count (0 disables the check).
    """

    n_values: tuple[int, ...]
    alpha: float
    C: float
    seeds: int
    mode: str = MODE_FIXED
    inner_c: float = 1.0
    jobs: int = 1
    underpass_trials: int = 0

    def __post_init__(self) -> None:
        values = tuple(_integer("n_values entry", v) for v in self.n_values)
        if not values:
            raise ValueError("n_values must be non-empty")
        if any(b <= a for a, b in zip(values, values[1:])):
            raise ValueError("n_values must be strictly increasing")
        if _integer("seeds", self.seeds) < 1:
            raise ValueError("seeds must be >= 1")
        if self.mode not in (MODE_FIXED, MODE_POISSON):
            raise ValueError(f"unknown mode {self.mode!r}")
        if _integer("jobs", self.jobs) < 1:
            raise ValueError("jobs must be >= 1")
        if _integer("underpass_trials", self.underpass_trials) < 0:
            raise ValueError("underpass_trials must be >= 0")
        if not math.isfinite(_real("inner_c", self.inner_c)):
            raise ValueError(f"inner_c must be finite, got {self.inner_c!r}")
        # validates 0 < alpha < 1 and n >= 1 the same way a cell would; R grows with
        # n, so R >= 0 binds at the smallest n, R <= MAX_RADIUS and alpha * R < 700
        # at the largest
        for n in (values[0], values[-1]):
            inner_band_radius(ModelParams(n, _real("alpha", self.alpha), _real("C", self.C)))
        object.__setattr__(self, "n_values", values)

    @classmethod
    def from_json(cls, stream: TextIO) -> "SweepConfig":
        raw = json.load(stream)
        if not isinstance(raw, dict):
            raise ValueError("sweep config must be a JSON object")
        known = {f.name for f in fields(cls)}
        unknown = set(raw) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        if "n_values" in raw:
            raw["n_values"] = tuple(raw["n_values"])
        return cls(**raw)


@dataclass
class SweepRecord:
    """One (n, seed) cell. CSV columns, the analysis ones filled from
    ``ANALYSIS_COLUMNS``, plus bookkeeping fields that do not go into the table."""

    n: int
    seed: int
    R: float = math.nan
    m: float = math.nan
    mean_degree: float = math.nan
    beta_hat: float = math.nan
    giant_size: float = math.nan
    second_size: float = math.nan
    giant_diameter: float = math.nan
    max_empty_run: float = math.nan
    inner_band_hops: float = math.nan
    gen_ms: float = math.nan
    analysis_ms: float = math.nan
    underpass_violations: int = 0
    underpass_tested: int = 0
    core_clique: bool = True
    core_in_giant: bool = True
    core_size: int = 0
    failed: bool = False
    error: str = ""

    def csv_row(self) -> str:
        cells = []
        for name in CSV_COLUMNS:
            value = getattr(self, name)
            if name in ("n", "seed"):
                cells.append(str(int(value)))
            elif isinstance(value, float) and value.is_integer() and math.isfinite(value):
                cells.append(str(int(value)))
            else:
                cells.append(repr(value))
        return ",".join(cells)


def _run_cell(config: SweepConfig, n: int, seed: int) -> SweepRecord:
    record = SweepRecord(n=n, seed=seed)
    try:
        params = ModelParams(n, config.alpha, config.C)
        record.R = params.R
        sampler = sample_poisson if config.mode == MODE_POISSON else sample_fixed
        t0 = time.perf_counter()
        ps = sampler(params, seed)
        g = build_banded(ps)
        record.gen_ms = (time.perf_counter() - t0) * 1000.0
        record.m = float(g.m)
        t1 = time.perf_counter()
        result = analyze_graph(g, config.inner_c)
        for name, read in ANALYSIS_COLUMNS.items():
            setattr(record, name, float(read(result)))
        record.core_size = result.components.core_size
        record.core_clique = result.components.core_clique
        record.core_in_giant = result.components.core_in_giant
        if config.underpass_trials > 0:
            underpass = check_underpass(g, config.underpass_trials, seed=seed)
            record.underpass_violations = underpass.violations
            record.underpass_tested = underpass.tested
        record.analysis_ms = (time.perf_counter() - t1) * 1000.0
    except Exception as exc:  # isolate the failing cell, keep the sweep going
        record.failed = True
        record.error = f"{type(exc).__name__}: {exc}"
    return record


def run_sweep(config: SweepConfig) -> list[SweepRecord]:
    """Run every cell; records come back in (n, seed) order, as the cells are listed."""
    cells = [(n, seed) for n in config.n_values for seed in range(1, config.seeds + 1)]
    # the fork start method launches every worker on the first submit
    workers = min(config.jobs, len(cells))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(_run_cell, [config] * len(cells), *zip(*cells)))
    return [_run_cell(config, n, seed) for n, seed in cells]


def write_sweep_csv(records: list[SweepRecord], stream: TextIO) -> None:
    stream.write(",".join(CSV_COLUMNS) + "\n")
    for record in records:
        stream.write(record.csv_row() + "\n")


def medians_by_n(records: list[SweepRecord], field: str) -> dict[int, float]:
    """Median of ``field`` over each n's cells, keyed by n in increasing order."""
    import statistics  # here, so that importing this module does not load it

    ns = sorted({r.n for r in records})
    return {n: statistics.median(getattr(r, field) for r in records if r.n == n) for n in ns}


def _unjudgeable(records: list[SweepRecord], least_n: int = 1, sizes: int = 1) -> str:
    """Why a criterion cannot judge ``records``: a failed cell, fewer than
    ``sizes`` distinct n values (no records at all among them), or an n below
    ``least_n``, where the ln n or ln ln n it divides by is undefined or not
    positive. Empty when it can."""
    if failed := next((r for r in records if r.failed), None):
        return f"cannot judge: cell n = {failed.n}, seed = {failed.seed} failed"
    ns = sorted({r.n for r in records})
    if len(ns) < sizes:
        return f"cannot judge: needs cells at {sizes} or more n values, got {len(ns)}"
    if ns[0] < least_n:
        return f"cannot judge: needs every n >= {least_n}, got n = {ns[0]}"
    return ""


def diameter_lower_bound(records: list[SweepRecord]) -> tuple[bool, str]:
    """Criterion 3: median diameter >= 0.5 ln n at every n, never falling as n grows."""
    if reason := _unjudgeable(records, 2):
        return False, reason
    med = medians_by_n(records, "giant_diameter")
    least = min(d / math.log(n) for n, d in med.items())
    monotone = all(a <= b for a, b in itertools.pairwise(med.values()))
    return least >= 0.5 and monotone, (
        f"median diameters {[int(d) for d in med.values()]}, "
        f"min diameter/ln(n) = {least:.3f} (need >= 0.5), non-decreasing={monotone}"
    )


def diameter_upper_bound(records: list[SweepRecord]) -> tuple[bool, str]:
    """Criterion 4: median diameter / (ln n)^4 grows at most 3-fold from any n
    to a larger one; it may decay (like (ln n)^-3 under Theta(log n))."""
    if reason := _unjudgeable(records, 2, sizes=2):
        return False, reason
    med = medians_by_n(records, "giant_diameter")
    if zero := [n for n, d in med.items() if d == 0]:
        return False, f"cannot judge: needs median diameters above 0, got 0 at n = {zero}"
    ratios = [d / math.log(n) ** 4 for n, d in med.items()]
    growth = max(b / a for a, b in itertools.combinations(ratios, 2))
    return growth <= 3.0, (
        f"median diameter/(ln n)^4 x1e3 {[round(r * 1e3, 2) for r in ratios]}, "
        f"largest growth ratio(b)/ratio(a) over a < b = {growth:.2f} (need <= 3); "
        f"two-sided max/min = {max(ratios) / min(ratios):.2f} (information only)"
    )


def second_component_bound(records: list[SweepRecord]) -> tuple[bool, str]:
    """Criterion 5: second component <= (ln n)^4 in every cell; the a.a.s.
    sqrt(n) bound, below (ln n)^4 at desk sizes, reads the per-n median."""
    if reason := _unjudgeable(records, 2):
        return False, reason
    med = medians_by_n(records, "second_size")
    medians_ok = all(s < math.sqrt(n) for n, s in med.items())
    worst = max(records, key=lambda r: r.second_size / math.log(r.n) ** 4)
    worst_share = worst.second_size / math.log(worst.n) ** 4
    over_root = sum(1 for r in records if r.second_size >= math.sqrt(r.n))
    return worst_share <= 1.0 and medians_ok, (
        f"median second vs sqrt(n) {[(int(s), round(math.sqrt(n), 1)) for n, s in med.items()]} "
        f"(need median < sqrt(n)); worst cell (n={worst.n}, seed={worst.seed}, "
        f"second={int(worst.second_size)}) uses {worst_share:.3f} of (ln n)^4 (need <= 1); "
        f"{over_root}/{len(records)} cells have second >= sqrt(n) (information only)"
    )


def core_clique_and_giant(records: list[SweepRecord]) -> tuple[bool, str]:
    """Criterion 6: the core is a clique in every cell, inside the giant in all but one."""
    if reason := _unjudgeable(records):
        return False, reason
    total = len(records)
    cliques = sum(1 for r in records if r.core_clique)
    contained = sum(1 for r in records if r.core_in_giant)
    return cliques == total and contained >= total - 1, (
        f"clique {cliques}/{total}, containment {contained}/{total} (need >= {total - 1})"
    )


def underpass_property(records: list[SweepRecord]) -> tuple[bool, str]:
    """Criterion 7: no forced edge missing over at least 10^6 sampled triples."""
    if reason := _unjudgeable(records):
        return False, reason
    tested = sum(r.underpass_tested for r in records)
    violations = sum(r.underpass_violations for r in records)
    return violations == 0 and tested >= 1_000_000, (
        f"{violations} violations over {tested} sampled triples (tolerance zero)"
    )


def inner_band_reach(records: list[SweepRecord]) -> tuple[bool, str]:
    """Criterion 11: hops / ln ln n over all cells lies within a factor 3 (so
    one 0-hop cell fails a sweep whose other cells read 1 hop)."""
    if reason := _unjudgeable(records, 3):
        return False, reason
    ratios = [r.inner_band_hops / math.log(math.log(r.n)) for r in records]
    lo, hi = min(ratios), max(ratios)
    inside = "; inner band lies inside the core at these sizes" if hi == 0 else ""
    return hi <= 3.0 * lo + 1e-12, (
        f"hops/lnln(n) spans [{lo:.3f}, {hi:.3f}] across {len(ratios)} cells "
        f"(factor-3 band){inside}"
    )


SWEEP_CRITERIA = {
    "criterion-3 diameter lower-bound scaling": diameter_lower_bound,
    "criterion-4 diameter upper-bound scaling": diameter_upper_bound,
    "criterion-5 second component": second_component_bound,
    "criterion-6 core clique and giant containment": core_clique_and_giant,
    "criterion-7 underpass property": underpass_property,
    "criterion-11 inner-band reach": inner_band_reach,
}
