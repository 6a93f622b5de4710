"""Acceptance suite: desk-scale experiments checking the model's headline
properties at their stated tolerances.

Run with ``pytest -s tests/test_acceptance.py`` to see one PASS/FAIL line
per criterion. The sweep (n = 2^11..2^17, 5 seeds each, alpha = 0.75,
C = 0) is computed once and shared. The criteria that read it (3-7 and
11) are ``hrg.experiments.SWEEP_CRITERIA``; each test here asserts one.
"""

import math
import os
import statistics
import time

import numpy as np
import pytest
from conftest import mp_theta_decay

from hrg.experiments import SWEEP_CRITERIA, SweepConfig, run_sweep
from hrg.geometry import ModelParams
from hrg.graphgen import build_banded
from hrg.sampling import poisson_counts, sample_fixed
from hrg.verify import (
    THETA_DECAY_BOUND,
    angle_chisquare,
    banded_naive_mismatches,
    diameter_mismatches,
    lens_measure,
    radial_ks,
)

ALPHA = 0.75
C_PARAM = 0.0
SWEEP_NS = tuple(2**k for k in range(11, 18))
SEEDS = 5
UNDERPASS_PER_CELL = 28_572  # 35 cells * 28572 > 1e6 triples
DELTA_THEORY = 5.7296
JOBS = min(2, os.cpu_count() or 1)


def report(name: str, ok: bool, detail: str) -> bool:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    return ok


def assert_sweep_criterion(records, label):
    assert report(label, *SWEEP_CRITERIA[label](records))


@pytest.fixture(scope="session")
def sweep_records():
    config = SweepConfig(
        n_values=SWEEP_NS,
        alpha=ALPHA,
        C=C_PARAM,
        seeds=SEEDS,
        underpass_trials=UNDERPASS_PER_CELL,
        jobs=JOBS,
    )
    records = run_sweep(config)
    assert not any(r.failed for r in records), [r.error for r in records if r.failed]
    return records


@pytest.fixture(scope="session")
def big_runs():
    """Five seeds at n = 2e5: per-seed runtime, mean degree, tail fit."""
    runs = []
    params = ModelParams(200_000, ALPHA, C_PARAM)
    for seed in range(1, 6):
        start = time.perf_counter()
        g = build_banded(sample_fixed(params, seed))
        from hrg.analysis import degree_stats

        d = degree_stats(g)
        runs.append(
            {
                "seed": seed,
                "seconds": time.perf_counter() - start,
                "mean_degree": d.mean_degree,
                "beta_hat": d.beta_hat,
            }
        )
    return runs


def test_criterion_1_power_law_exponent(big_runs):
    betas = sorted(r["beta_hat"] for r in big_runs)
    median_beta = statistics.median(betas)
    slowest = max(r["seconds"] for r in big_runs)
    ok = 2.2 <= median_beta <= 2.8 and slowest < 120.0
    assert report(
        "criterion-1 power-law exponent",
        ok,
        f"median beta_hat={median_beta:.3f} (target 2.5, band [2.2, 2.8]), "
        f"slowest seed {slowest:.1f}s < 120s",
    )


def test_criterion_2_average_degree(big_runs):
    degrees = sorted(r["mean_degree"] for r in big_runs)
    median_degree = statistics.median(degrees)
    rel = abs(median_degree - DELTA_THEORY) / DELTA_THEORY
    assert report(
        "criterion-2 average degree",
        rel <= 0.15,
        f"median mean degree {median_degree:.3f} vs theory {DELTA_THEORY} "
        f"(relative gap {rel:.1%}, allowed 15%)",
    )


def test_criterion_3_lower_bound_scaling(sweep_records):
    assert_sweep_criterion(sweep_records, "criterion-3 diameter lower-bound scaling")


def test_criterion_4_upper_bound_scaling(sweep_records):
    assert_sweep_criterion(sweep_records, "criterion-4 diameter upper-bound scaling")


def test_criterion_5_second_component(sweep_records):
    assert_sweep_criterion(sweep_records, "criterion-5 second component")


def test_criterion_6_core_clique_and_giant(sweep_records):
    assert_sweep_criterion(sweep_records, "criterion-6 core clique and giant containment")


def test_criterion_7_underpass(sweep_records):
    assert_sweep_criterion(sweep_records, "criterion-7 underpass property")


def test_criterion_8_geometry_validators():
    worst = mp_theta_decay(ModelParams.from_radius(30.0, ALPHA).R)
    decay_ok = 0.0 < worst <= THETA_DECAY_BOUND
    mc, approx, tol = lens_measure(41, 10_000_000)
    gap = abs(mc.value - approx)
    assert report(
        "criterion-8 geometry validators",
        decay_ok and gap <= tol,
        f"theta decay ratio max {worst:.3f} <= {THETA_DECAY_BOUND}; lens mc={mc.value:.3e} "
        f"approx={approx:.3e} gap={gap:.2e} tol={tol:.2e}",
    )


def test_criterion_9_sampler_fidelity():
    ps = sample_fixed(ModelParams(1_000_000, ALPHA, C_PARAM), 42)
    ks = radial_ks(ps)
    chi2 = angle_chisquare(ps)

    small = ModelParams(100, ALPHA, C_PARAM)
    counts = poisson_counts(small, 100_000, seed=0)
    mean = counts[:10_000].mean()
    var = counts[:10_000].var(ddof=1)
    prob = float(np.mean(counts == 100))
    stirling = 1.0 / math.sqrt(2.0 * math.pi * 100.0)
    ok = (
        ks.pvalue > 0.01
        and chi2.pvalue > 0.01
        and abs(mean / 100.0 - 1.0) <= 0.10
        and abs(var / 100.0 - 1.0) <= 0.10
        and stirling / 2.0 <= prob <= 2.0 * stirling
    )
    assert report(
        "criterion-9 sampler fidelity",
        ok,
        f"KS p={ks.pvalue:.3f}, chi2 p={chi2.pvalue:.3f}, Poisson mean={mean:.2f} "
        f"var={var:.1f}, Pr[count=100]={prob:.4f} (Stirling {stirling:.4f})",
    )


def test_criterion_10_oracle_equivalences():
    # both loops draw from one generator, the builder comparisons first
    rng = np.random.default_rng(43)
    sizes = [10] * 10 + [100] * 10 + [500] * 10 + [1000] * 10 + [2000] * 10
    builder_bad = banded_naive_mismatches(rng, sizes)
    diameter_bad = diameter_mismatches(rng, 100)
    assert report(
        "criterion-10 oracle equivalences",
        builder_bad == 0 and diameter_bad == 0,
        f"{len(sizes)} builder comparisons ({builder_bad} mismatches), "
        f"100 diameter comparisons ({diameter_bad} mismatches)",
    )


def test_criterion_11_inner_band_reach(sweep_records):
    assert_sweep_criterion(sweep_records, "criterion-11 inner-band reach")
