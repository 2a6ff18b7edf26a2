"""Acceptance gate: one test per release criterion, one verdict line each.

Every test times itself against its runtime budget and collects subcheck
failures into a list, so a red run names the exact inequality that broke
instead of stopping at the first assert.  Monte Carlo gates run at fixed
seeds and significance 0.001; exact gates pin closed-form oracles evaluated
independently of the library code.
"""

import math
import time

import numpy as np
from mpmath import mp
from scipy.integrate import quad

from bergman_dpp import (
    ActiveIndexSet,
    BergmanSpectrum,
    FamilySpec,
    GeometricWeights,
    GinibreSpectrum,
    PHASE_MODULI,
    PHASE_SAMPLE,
    SamplerConfig,
    check_properties,
    chernoff_consistency,
    coincidence_probability,
    construct_family,
    count_gof,
    count_pmf,
    coupling_tail,
    default_bound_truncation,
    default_truncation,
    family_trace_closed_form,
    intensity_profile_test,
    ks_critical_value,
    ks_statistic,
    make_region,
    make_rng,
    mc_count_stats,
    min_radius_cdf,
    sample,
    sample_moduli,
    sample_positions,
    sufficiency_margin,
    wasserstein_bound,
)


def _finish(log, name, t0, budget, failures):
    elapsed = time.perf_counter() - t0
    if elapsed >= budget:
        failures.append(f"runtime {elapsed:.2f} s exceeds {budget:.0f} s budget")
    status = "PASS" if not failures else "FAIL"
    log.append(f"[{status}] {name} ({elapsed:.2f} s)")
    assert not failures, f"{name}: " + "; ".join(failures)


def test_01_eigenvalue_exactness(acceptance_log):
    t0 = time.perf_counter()
    fails = []

    half = BergmanSpectrum.disc(0.5)
    if half.eigenvalue(0) != 0.25:
        fails.append(f"disc(0.5) n=0 gave {half.eigenvalue(0)!r}, want 0.25 exactly")
    if half.eigenvalue(3) != 0.00390625:  # 0.5**8
        fails.append(f"disc(0.5) n=3 gave {half.eigenvalue(3)!r}, want 0.5**8 exactly")
    ann = BergmanSpectrum.annulus(0.5, 0.9)
    if ann.eigenvalue(0) != 0.9 * 0.9 - 0.5 * 0.5:
        fails.append(f"annulus(0.5,0.9) n=0 gave {ann.eigenvalue(0)!r}, want 0.56 exactly")

    # a single interval [0, R] must reproduce the disc spectrum bit for bit
    for radius in (0.5, 0.9):
        via_disc = BergmanSpectrum.disc(radius).eigenvalues(201)
        via_interval = BergmanSpectrum(make_region([(0.0, radius)])).eigenvalues(201)
        if not np.array_equal(via_disc, via_interval):
            worst = np.max(np.abs(via_disc - via_interval))
            fails.append(f"interval [0,{radius}] deviates from disc by {worst:.3e}")

    _finish(acceptance_log, "01 eigenvalue exactness", t0, 1.0, fails)


def test_02_eigenfunction_orthonormality(acceptance_log):
    t0 = time.perf_counter()
    fails = []

    # the angular integral is 2*pi*delta_mn exactly, so the Gram matrix
    # reduces to the radial diagonal; off-diagonal entries are zero by parity
    for spectrum in (BergmanSpectrum.disc(0.8), BergmanSpectrum.annulus(0.5, 0.9)):
        label = spectrum.region.literal()
        for n in range(10):
            total = 0.0
            for a, b in spectrum.region.intervals:
                val, _ = quad(
                    lambda r, n=n: abs(spectrum.eigenfunction(n, r)) ** 2 * r, a, b
                )
                total += val
            diag = 2.0 * math.pi * total
            if abs(diag - 1.0) >= 1e-8:
                fails.append(f"{label} G[{n},{n}] = {diag!r} off identity by >= 1e-8")

    _finish(acceptance_log, "02 eigenfunction orthonormality", t0, 5.0, fails)


def test_03_trace_identities(acceptance_log):
    t0 = time.perf_counter()
    fails = []

    trace = BergmanSpectrum.disc(0.9).trace()
    if abs(trace - 0.81 / 0.19) > 1e-12:
        fails.append(f"disc(0.9) trace {trace!r} != 0.81/0.19 within 1e-12")
    if round(trace, 7) != 4.2631579:
        fails.append(f"disc(0.9) trace rounds to {round(trace, 7)}, want 4.2631579")

    # the closed-form trace, and the eigenvalue series summed here, not taken from it
    for radius in (0.5, 1.0, 2.0):
        spectrum = GinibreSpectrum(radius)
        if spectrum.trace() != radius * radius:
            fails.append(f"ginibre trace({radius}) = {spectrum.trace()!r}, want R**2")
        got = float(np.sum(spectrum.eigenvalues(200)))
        if abs(got - radius * radius) > 1e-8:
            fails.append(f"ginibre eigenvalue sum({radius}) = {got!r}, want R**2 within 1e-8")

    _finish(acceptance_log, "03 trace identities", t0, 1.0, fails)


def test_04_bound_dominance(acceptance_log):
    t0 = time.perf_counter()
    fails = []

    for radius in (0.5, 0.7, 0.9, 0.99):
        for beta in (1.0, 2.0, 3.0, 5.0):
            n = default_bound_truncation(radius, beta)
            coincidence = coincidence_probability(radius, n)
            tail = coupling_tail(radius, n)
            exponential = wasserstein_bound(radius, beta)
            if not coincidence <= tail <= exponential:
                fails.append(
                    f"R={radius} beta={beta}: {coincidence!r} <= {tail!r} "
                    f"<= {exponential!r} broken"
                )

    # spot values at (0.9, 2): tail 0.5183 below the exponential 0.7747
    n = default_bound_truncation(0.9, 2.0)
    tail = coupling_tail(0.9, n)
    exponential = wasserstein_bound(0.9, 2.0)
    if n != 9:
        fails.append(f"truncation at (0.9, 2) resolved to {n}, want 9")
    if round(tail, 4) != 0.5183:
        fails.append(f"coupling tail {tail!r} does not round to 0.5183")
    if round(exponential, 4) != 0.7747:
        fails.append(f"exponential bound {exponential!r} does not round to 0.7747")
    if not tail <= exponential:
        fails.append("spot dominance 0.5183 <= 0.7747 broken")

    _finish(acceptance_log, "04 bound dominance", t0, 1.0, fails)


def test_05_chernoff_validity(acceptance_log):
    t0 = time.perf_counter()
    fails = []

    dist = count_pmf(BergmanSpectrum.disc(0.9).eigenvalues(50))
    rows = chernoff_consistency(dist, [round(0.1 * k, 1) for k in range(1, 10)])
    for row in rows:
        if not row["ok"]:
            fails.append(f"tail above bound at c={row['c']}: {row!r}")

    # spot check at c = 0.5 against the exponents written out longhand
    m = dist.mean()
    c = 0.5
    lower = dist.cdf(math.floor((1.0 - c) * m))
    upper = dist.upper_tail(math.ceil((1.0 + c) * m))
    lower_bound = math.exp(-m * (c + (1.0 - c) * math.log(1.0 - c)))
    upper_bound = math.exp(-m * ((1.0 + c) * math.log(1.0 + c) - c))
    if lower > lower_bound + 1e-12:
        fails.append(f"lower tail {lower!r} above exp bound {lower_bound!r}")
    if upper > upper_bound + 1e-12:
        fails.append(f"upper tail {upper!r} above exp bound {upper_bound!r}")

    _finish(acceptance_log, "05 chernoff validity", t0, 1.0, fails)


def test_06_count_law_agreement(acceptance_log):
    t0 = time.perf_counter()
    fails = []
    reps = 100_000

    spectrum = BergmanSpectrum.disc(0.9)
    dist = count_pmf(spectrum.eigenvalues(22))
    stats = mc_count_stats(spectrum, SamplerConfig(n_eigen=22, seed=0), reps)

    gof = count_gof(stats.histogram, dist, alpha=1e-3)
    if not gof.passed:
        fails.append(f"chi-square {gof.statistic:.3f} over threshold {gof.threshold:.3f}")

    se_mean = math.sqrt(dist.variance() / reps)
    if abs(stats.mean - dist.mean()) > 4.0 * se_mean:
        fails.append(
            f"mean {stats.mean!r} vs exact {dist.mean()!r} beyond 4 se ({se_mean:.2e})"
        )

    # sample variance concentrates at rate sqrt((mu4 - var**2) / reps)
    se_var = math.sqrt((dist.moment(4) - dist.variance() ** 2) / reps)
    if abs(stats.variance - dist.variance()) > 4.0 * se_var:
        fails.append(
            f"variance {stats.variance!r} vs exact {dist.variance()!r} "
            f"beyond 4 se ({se_var:.2e})"
        )
    if dist.variance() > dist.mean() + 1e-12:
        fails.append("exact variance exceeds exact mean")

    _finish(acceptance_log, "06 count law agreement", t0, 30.0, fails)


def test_07_single_index_radial_law(acceptance_log):
    t0 = time.perf_counter()
    fails = []
    reps = 100_000

    spectrum = BergmanSpectrum.disc(0.8)
    crit = ks_critical_value(reps, alpha=1e-3)
    for index in (0, 3):
        active = ActiveIndexSet((index,), index + 1)
        rng = make_rng(2025, index, PHASE_SAMPLE)
        radii = np.empty(reps)
        for r in range(reps):
            radii[r] = sample_positions(spectrum, active, rng).moduli()[0]
        power = 2 * index + 2
        stat = ks_statistic(radii, lambda x: (x / 0.8) ** power)
        if stat >= crit:
            fails.append(f"index {index}: KS {stat:.5f} >= critical {crit:.5f}")

    _finish(acceptance_log, "07 single index radial law", t0, 60.0, fails)


def test_08_intensity_profile(acceptance_log):
    t0 = time.perf_counter()
    fails = []
    reps = 10_000

    spectrum = BergmanSpectrum.disc(0.9)
    config = SamplerConfig(beta=5.0, seed=31)
    n_eigen = default_truncation(spectrum, 5.0)
    if n_eigen != 22:
        fails.append(f"beta=5 truncation resolved to {n_eigen}, want 22")

    configs = [sample(spectrum, config, replica=r) for r in range(reps)]
    bins = [(0.0, 0.2), (0.2, 0.4), (0.4, 0.5), (0.5, 0.7), (0.7, 0.9)]
    gof = intensity_profile_test(configs, spectrum, bins, alpha=1e-3)
    if not gof.passed:
        fails.append(f"chi-square {gof.statistic:.3f} over threshold {gof.threshold:.3f}")

    # truncated per-bin expectations sit below the untruncated logit targets
    # by at most the certified tail mass
    tail = coupling_tail(0.9, n_eigen - 1)
    powers = 2.0 * np.arange(n_eigen) + 2.0
    for r1, r2 in bins + [(0.5, 0.9)]:
        untruncated = r2 * r2 / (1.0 - r2 * r2) - r1 * r1 / (1.0 - r1 * r1)
        truncated = float(np.sum(r2**powers) - np.sum(r1**powers))
        if not 0.0 <= untruncated - truncated <= tail:
            fails.append(
                f"bin ({r1},{r2}]: untruncated {untruncated!r} vs truncated "
                f"{truncated!r} outside tail {tail!r}"
            )
    spot = 0.81 / 0.19 - 0.25 / 0.75
    if round(spot, 7) != 3.9298246:
        fails.append(f"untruncated [0.5,0.9] target {spot!r} rounds off 3.9298246")

    _finish(acceptance_log, "08 intensity profile", t0, 600.0, fails)


def test_09_large_disc_count_distribution(acceptance_log):
    t0 = time.perf_counter()
    fails = []

    radius = 0.9995
    # smallest truncation whose neglected mass is certified below 1e-9
    n_eigen = int(
        math.ceil((math.log(1e-9 * (1.0 - radius * radius)) / math.log(radius) - 2.0) / 2.0)
    )
    while coupling_tail(radius, n_eigen - 2) < 1e-9:
        n_eigen -= 1
    while coupling_tail(radius, n_eigen - 1) >= 1e-9:
        n_eigen += 1
    if coupling_tail(radius, n_eigen - 1) >= 1e-9:
        fails.append("truncation search failed to certify the tail")

    dist = count_pmf(BergmanSpectrum.disc(radius).eigenvalues(n_eigen))
    mean = dist.mean()
    sd = math.sqrt(dist.variance())
    # full-precision values derived once from the exact law and frozen here
    if abs(mean - 999.2500625147427) > 1e-6:
        fails.append(f"mean {mean!r} off frozen value by > 1e-6")
    if abs(mean - 999.25) >= 0.01:
        fails.append(f"mean {mean!r} not within 0.01 of 999.25")
    if abs(sd - 22.3578824181903) > 1e-4:
        fails.append(f"sd {sd!r} off frozen value by > 1e-4")
    if abs(sd - 22.4) > 0.05:
        fails.append(f"sd {sd!r} not within 0.05 of 22.4")

    lo, hi = dist.quantile(0.005), dist.quantile(0.995)
    if not lo <= 985 <= hi:
        fails.append(f"985 outside central 99% window [{lo}, {hi}]")

    _finish(acceptance_log, "09 large disc count distribution", t0, 10.0, fails)


def test_10_min_radius_law(acceptance_log):
    t0 = time.perf_counter()
    fails = []
    reps = 100_000

    rng = make_rng(7, 0, PHASE_MODULI)
    mins = np.empty(reps)
    for r in range(reps):
        mins[r] = sample_moduli(20, rng).min()
    stat = ks_statistic(mins, lambda x: min_radius_cdf(20, x))
    crit = ks_critical_value(reps, alpha=1e-3)
    if stat >= crit:
        fails.append(f"KS {stat:.5f} >= critical {crit:.5f}")

    for x in (0.1, 0.3, 1.0 / 3.0, 0.7071067811865476, 0.9, 0.999):
        if min_radius_cdf(1, x) != x * x:
            fails.append(f"min_radius_cdf(1, {x!r}) != x*x exactly")

    _finish(acceptance_log, "10 min radius law", t0, 10.0, fails)


def test_11_family_construction(acceptance_log):
    t0 = time.perf_counter()
    fails = []

    spec = FamilySpec(0.2, 0.3, GeometricWeights(0.1, 0.5), 50)
    build = construct_family(spec)

    flat = [x for pair in build.endpoints for x in pair]
    if not all(flat[i] < flat[i + 1] for i in range(len(flat) - 1)):
        fails.append("native endpoints are not strictly interleaved")
    worst = max(build.logit_defects)
    if worst >= 1e-12:
        fails.append(f"per-step logit defect {worst:.3e} >= 1e-12")

    # second route to the trace: sum the eigenvalue series over n with the
    # per-interval geometric remainders closed out exactly
    horizon = 64
    with mp.workdps(400):
        endpoints = [(mp.mpf(str(a)), mp.mpf(str(b))) for a, b in build.endpoints]
        double_sum = mp.mpf(0)
        for n in range(horizon):
            p = 2 * n + 2
            double_sum += mp.fsum(b**p - a**p for a, b in endpoints)
        for a, b in endpoints:
            a2, b2 = a * a, b * b
            double_sum += b2 ** (horizon + 1) / (1 - b2) - a2 ** (horizon + 1) / (1 - a2)
        double_sum = float(double_sum)
    closed = family_trace_closed_form(spec)
    if abs(double_sum - build.materialized_trace) > 5e-13:
        fails.append(
            f"series trace {double_sum!r} vs materialized {build.materialized_trace!r}"
        )
    if abs(double_sum + build.residual_weight - closed) > 1e-8:
        fails.append(
            f"series {double_sum!r} + residual {build.residual_weight!r} "
            f"off closed form {closed!r} by > 1e-8"
        )
    if round(closed, 7) != 0.2572344:
        fails.append(f"closed-form trace {closed!r} does not round to 0.2572344")

    report = check_properties(build, 0.01)
    # doubling contraction from width 0.1 needs ceil(log2(0.7/0.01)) halvings
    if report.predicted_witness_index != 7:
        fails.append(f"predicted witness step {report.predicted_witness_index}, want 7")
    if not report.witness_found:
        fails.append("no annulus reaches the delta=0.01 boundary band")
    elif report.witness_index > report.predicted_witness_index:
        fails.append(
            f"witness at step {report.witness_index} later than predicted "
            f"{report.predicted_witness_index}"
        )
    if not (report.measure_margin > 0.0 and math.isfinite(report.measure_margin)):
        fails.append(f"measure margin {report.measure_margin!r} not a positive float")
    if abs(report.measure + report.measure_margin - math.pi) > 1e-12:
        fails.append("measure and margin do not partition the unit disc area")

    _finish(acceptance_log, "11 family construction", t0, 1.0, fails)


def test_12_sufficiency_margin_signs(acceptance_log):
    t0 = time.perf_counter()
    fails = []

    small = sufficiency_margin(0.01, 100)
    large = sufficiency_margin(0.01, 10_000)
    if not small > 0.0:
        fails.append(f"margin(0.01, 100) = {small!r} not positive")
    if not 2.0 < small < 3.0:
        fails.append(f"margin(0.01, 100) = {small!r} outside (2, 3)")
    if not large < -190.0:
        fails.append(f"margin(0.01, 1e4) = {large!r} not below -190")
    if not large > -200.0:
        fails.append(f"margin(0.01, 1e4) = {large!r} implausibly low")

    _finish(acceptance_log, "12 sufficiency margin signs", t0, 1.0, fails)
