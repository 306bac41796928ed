"""Acceptance gate: one test per criterion, one printed PASS/FAIL line each.

Each test prints ``CRITERION k: PASS/FAIL - detail`` directly to the
terminal (bypassing capture) and then asserts, so the suite stays red on
any acceptance regression.

Criteria 2 and 3 are KNOWN RED: the third-layer counting identity and
its cancellation mechanism do not hold as stated.  The restricted-class
counts at layer index 3 are 20 / 42 / 1112 for dimensions 2 / 3 / 4,
against coefficient magnitudes 16 / 36 / 1024, and the signed insertion
multiplicities net to nonzero values off the restricted class.  The
tests below run those checks faithfully and fail honestly; see README
"Known deviations" for the analysis summary.
"""

import itertools
import math
import random
import time
from fractions import Fraction

import numpy as np

from causetbox.causet import gravitational_action, box_operator, from_relations
from causetbox.coefficients import (
    alpha_over_beta,
    catalan_number,
    coefficient_table,
    layer_coefficient,
    num_layers,
    scaled_coefficient,
    scaled_gamma_ratio,
)
from causetbox.diagrams import (
    count_restricted,
    enumerate_diagrams,
    restricted_class_parameters,
    verify_cancellation,
    verify_coefficient_count,
)
from causetbox.evenstrings import (
    count_constrained_paths,
    count_constrained_strings,
    fiber_sizes,
)
from causetbox.genseries import diagram_series
from causetbox.sprinkling import (
    ConstantField,
    DiamondConfig,
    boost_coords,
    causal_matrix,
    diamond_volume,
    estimate_box,
    sprinkle,
)
from gamma_oracle import alpha_over_beta_gamma_form


def _report(capsys, number: int, passed: bool, detail: str) -> None:
    verdict = "PASS" if passed else "FAIL"
    with capsys.disabled():
        print(f"CRITERION {number}: {verdict} - {detail}", flush=True)


def test_criterion_01_coefficient_exactness(capsys):
    """d=2 coefficients are exactly (1, -2, 1); runtime < 1 ms."""
    start = time.perf_counter()
    table = coefficient_table(2)
    elapsed = time.perf_counter() - start
    expected = (Fraction(1), Fraction(-2), Fraction(1))
    exact = table.entries == expected
    in_budget = elapsed < 1e-3
    detail = f"d=2 coefficients {tuple(map(str, table.entries))} in {elapsed * 1e3:.3f} ms"
    _report(capsys, 1, exact and in_budget, detail)
    assert exact, detail
    assert in_budget, detail


def test_criterion_02_counting_identity_grid(capsys):
    """Signed restricted-diagram count equals the scaled coefficient for
    d in {2,3,4}, layer index up to d//2 + 2, over enumerations of at
    most 3 chords on at most 14 points; exact, < 5 minutes.

    KNOWN RED at layer index 3 in every dimension (see module docstring).
    """
    start = time.perf_counter()
    grid = [
        (d, i)
        for d in (2, 3, 4)
        for i in range(1, d // 2 + 3)
        if restricted_class_parameters(d, i)[1] <= 14
    ]
    failures = []
    for d, i in grid:
        if not verify_coefficient_count(d, i):
            n, m, gap, place = restricted_class_parameters(d, i)
            count = count_restricted(n, m, gap, place)
            failures.append(
                f"(d={d},i={i}): count {count} vs |coefficient| "
                f"{abs(scaled_coefficient(d, i))}"
            )
    elapsed = time.perf_counter() - start
    in_budget = elapsed < 300
    passed = not failures and in_budget
    detail = (
        f"all {len(grid)} grid points match in {elapsed:.1f} s"
        if passed
        else f"{len(failures)}/{len(grid)} mismatches in {elapsed:.1f} s: "
        + "; ".join(failures)
    )
    _report(capsys, 2, passed, detail)
    assert not failures, detail
    assert in_budget, detail


def test_criterion_03_cancellation_mechanism(capsys):
    """verify_cancellation at (2,2), (2,3), (3,2); exact, < 2 minutes.

    KNOWN RED at (2,3) (see module docstring).
    """
    start = time.perf_counter()
    points = [(2, 2), (2, 3), (3, 2)]
    failures = [f"(d={d},i={i})" for d, i in points if not verify_cancellation(d, i)]
    elapsed = time.perf_counter() - start
    in_budget = elapsed < 120
    passed = not failures and in_budget
    detail = (
        f"all of {points} cancel in {elapsed:.2f} s"
        if passed
        else f"nonzero net multiplicity off the restricted class at "
        + ", ".join(failures)
        + f" in {elapsed:.2f} s"
    )
    _report(capsys, 3, passed, detail)
    assert not failures, detail
    assert in_budget, detail


def test_criterion_04_generating_function_oracle(capsys):
    """|enumerate_diagrams(n, m)| equals the series coefficient for all
    n <= 4, m <= 12; exact, < 2 minutes."""
    start = time.perf_counter()
    series = diagram_series(4, 12)
    mismatches = []
    for n in range(5):
        for m in range(1, 13):
            enumerated = len(enumerate_diagrams(n, m))
            from_series = series.coefficient(n, m)
            if enumerated != from_series:
                mismatches.append(f"(n={n},m={m}): {enumerated} != {from_series}")
    spot = (
        len(enumerate_diagrams(1, 2)) == 4
        and len(enumerate_diagrams(1, 3)) == 6
        and len(enumerate_diagrams(2, 4)) == 16
    )
    elapsed = time.perf_counter() - start
    in_budget = elapsed < 120
    passed = not mismatches and spot and in_budget
    detail = (
        f"60 coefficients match (incl. 4/6/16 spot checks) in {elapsed:.1f} s"
        if passed
        else f"mismatches: {mismatches}; spot checks ok={spot}; {elapsed:.1f} s"
    )
    _report(capsys, 4, passed, detail)
    assert not mismatches and spot, detail
    assert in_budget, detail


def test_criterion_05_series_matches_gamma_ratio(capsys):
    """Series coefficient at (d//2 + 1, 2*(d//2) + 2 + d*k) equals the
    scaled gamma ratio for d <= 6, k <= 3; exact, < 1 s."""
    start = time.perf_counter()
    series = diagram_series(4, 26)
    mismatches = []
    for d in range(2, 7):
        for k in range(4):
            n = d // 2 + 1
            m = 2 * (d // 2) + 2 + d * k
            got = series.coefficient(n, m)
            want = scaled_gamma_ratio(d, k)
            if got != want:
                mismatches.append(f"(d={d},k={k}): {got} != {want}")
    elapsed = time.perf_counter() - start
    in_budget = elapsed < 1.0
    passed = not mismatches and in_budget
    detail = (
        f"20 (d,k) pairs match in {elapsed * 1e3:.1f} ms"
        if passed
        else f"mismatches: {mismatches}; {elapsed * 1e3:.1f} ms"
    )
    _report(capsys, 5, passed, detail)
    assert not mismatches, detail
    assert in_budget, detail


def test_criterion_06_fiber_uniformity(capsys):
    """Every fiber of the odd-point string map has size exactly 4**n and
    the keys are all n-one strings, for n <= 3, j <= 5; exact, < 1 min."""
    start = time.perf_counter()
    problems = []
    for n in range(4):
        for j in range(max(n, 1), 6):
            fibers = fiber_sizes(n, j)
            expected_keys = {
                "".join("1" if p in ones else "0" for p in range(j))
                for ones in itertools.combinations(range(j), n)
            }
            if set(fibers) != expected_keys:
                problems.append(f"(n={n},j={j}): key set wrong")
            bad = {s: c for s, c in fibers.items() if c != 4**n}
            if bad:
                problems.append(f"(n={n},j={j}): non-4^n fibers {bad}")
    elapsed = time.perf_counter() - start
    in_budget = elapsed < 60
    passed = not problems and in_budget
    detail = (
        f"all fibers are exactly 4^n with complete key sets in {elapsed:.2f} s"
        if passed
        else f"{problems}; {elapsed:.2f} s"
    )
    _report(capsys, 6, passed, detail)
    assert not problems, detail
    assert in_budget, detail


def test_criterion_07_even_dimension_string_counts(capsys):
    """count_constrained_strings(d, i) == (-1)**(i-1) * C_i^(d) and the
    lattice-path count agrees, for even d <= 10 and every layer index;
    exact, < 30 s."""
    start = time.perf_counter()
    mismatches = []
    checked = 0
    for d in (2, 4, 6, 8, 10):
        for i in range(1, num_layers(d) + 1):
            strings = count_constrained_strings(d, i)
            paths = count_constrained_paths(d, i)
            want = (-1) ** (i - 1) * layer_coefficient(d, i)
            checked += 1
            if not (strings == paths == want):
                mismatches.append(f"(d={d},i={i}): {strings}/{paths} vs {want}")
    elapsed = time.perf_counter() - start
    in_budget = elapsed < 30
    passed = not mismatches and in_budget
    detail = (
        f"{checked} (d,i) pairs: strings == paths == signed coefficient "
        f"in {elapsed:.2f} s"
        if passed
        else f"mismatches: {mismatches}; {elapsed:.2f} s"
    )
    _report(capsys, 7, passed, detail)
    assert not mismatches, detail
    assert in_budget, detail


def test_criterion_08_catalan_ratio(capsys):
    """alpha/beta equals -Catalan(d/2)/2 for even d and -2**(d-1)/(d+1)
    for odd d, and equals the exact gamma-form evaluation, for d <= 12."""
    mismatches = []
    for d in range(2, 13):
        ratio = alpha_over_beta(d)
        closed = (
            -Fraction(catalan_number(d // 2), 2)
            if d % 2 == 0
            else -Fraction(2 ** (d - 1), d + 1)
        )
        gamma_form = alpha_over_beta_gamma_form(d)
        if not (ratio == closed == gamma_form):
            mismatches.append(f"d={d}: {ratio} / {closed} / {gamma_form}")
    passed = not mismatches
    detail = (
        "both closed forms agree exactly for d = 2..12"
        if passed
        else f"mismatches: {mismatches}"
    )
    _report(capsys, 8, passed, detail)
    assert passed, detail


def test_criterion_09_action_consistency(capsys):
    """For 20 seeded random causal sets (N <= 40), the action equals
    -ell**(d-2) * ell**2 * sum_x box(phi=1, x) for d in {2, 4} to
    relative tolerance 1e-10."""
    rng = random.Random(90)
    causal_sets = []
    for _ in range(20):
        n = rng.randint(1, 40)
        pairs = [
            (a, b)
            for a in range(n)
            for b in range(a + 1, n)
            if rng.random() < 0.3
        ]
        causal_sets.append(from_relations(n, pairs))
    worst = 0.0
    failures = []
    for index, causal_set in enumerate(causal_sets):
        ones = [1.0] * causal_set.size
        for d in (2, 4):
            for ell in (1.0, 0.7):
                got = gravitational_action(causal_set, d, ell).action
                total = sum(
                    box_operator(causal_set, d, ell, ones, x)
                    for x in range(causal_set.size)
                )
                want = -(ell ** (d - 2)) * ell**2 * total
                error = abs(got - want) / max(abs(want), 1e-30)
                worst = max(worst, error)
                if not math.isclose(got, want, rel_tol=1e-10, abs_tol=1e-12):
                    failures.append(f"set {index} (N={causal_set.size}, d={d}, ell={ell})")
    passed = not failures
    detail = (
        f"20 causal sets, d in (2,4), worst relative error {worst:.2e}"
        if passed
        else f"failures: {failures}; worst relative error {worst:.2e}"
    )
    _report(capsys, 9, passed, detail)
    assert passed, detail


def test_criterion_10_sprinkling_statistics(capsys):
    """d=2, half-height 1, density 50, 2000 trials: the non-tip count
    mean is within 4 standard errors of density * volume, and the order
    matrix is boost-invariant on 100 seeds; runtime < 2 minutes."""
    start = time.perf_counter()
    density = 50.0
    counts = []
    for seed in range(2000):
        config = DiamondConfig(dimension=2, density=density, half_height=1.0, seed=seed)
        counts.append(sprinkle(config).causal_set.size - 1)
    counts = np.asarray(counts, dtype=float)
    expected = density * diamond_volume(2, 1.0)
    std_error = counts.std(ddof=1) / math.sqrt(len(counts))
    z_score = (counts.mean() - expected) / std_error
    mean_ok = abs(counts.mean() - expected) < 4 * std_error

    boost_ok = True
    for seed in range(100):
        config = DiamondConfig(dimension=2, density=density, half_height=1.0, seed=seed)
        coords = sprinkle(config).causal_set.coords
        boosted = boost_coords(coords, 0.6)
        if not np.array_equal(causal_matrix(coords), causal_matrix(boosted)):
            boost_ok = False
            break
    elapsed = time.perf_counter() - start
    in_budget = elapsed < 120
    passed = mean_ok and boost_ok and in_budget
    detail = (
        f"count mean {counts.mean():.2f} vs {expected:.0f} (|z|={abs(z_score):.2f} < 4), "
        f"boost-invariant on 100 seeds, {elapsed:.1f} s"
    )
    _report(capsys, 10, passed, detail)
    assert mean_ok, detail
    assert boost_ok, detail
    assert in_budget, detail


def test_criterion_11_operator_trend(capsys):
    """d=2, phi = 1: box-estimate magnitudes at densities 10, 30, 100
    are each within 4 standard errors of a non-increasing-in-density
    envelope toward 0; runtime < 10 minutes.

    Operationalized as interval feasibility: with magnitude intervals
    [max(|mean| - 4*SE, 0), |mean| + 4*SE], some non-increasing
    non-negative envelope passes through all three iff for every
    density pair rho < rho' the lower bound at rho' does not exceed the
    upper bound at rho.  This is a consistency trend with generous
    tolerance, not a continuum-limit reproduction.
    """
    start = time.perf_counter()
    densities = (10.0, 30.0, 100.0)
    trials = 500
    stats = {}
    for density in densities:
        config = DiamondConfig(
            dimension=2, density=density, half_height=1.0, seed=2026
        )
        mean, std_error = estimate_box(config, ConstantField(1.0), trials)
        stats[density] = (mean, std_error)
    violations = []
    for pos, low in enumerate(densities):
        for high in densities[pos + 1 :]:
            mean_high, se_high = stats[high]
            mean_low, se_low = stats[low]
            lower = max(abs(mean_high) - 4 * se_high, 0.0)
            upper = abs(mean_low) + 4 * se_low
            if lower > upper:
                violations.append(f"rho {high} floor {lower:.1f} > rho {low} cap {upper:.1f}")
    elapsed = time.perf_counter() - start
    in_budget = elapsed < 600
    passed = not violations and in_budget
    summary = ", ".join(
        f"rho={d:g}: |mean|={abs(stats[d][0]):.1f} (SE {stats[d][1]:.1f})"
        for d in densities
    )
    detail = (
        f"non-increasing envelope feasible over {summary}; "
        f"{trials} trials each, {elapsed:.1f} s"
        if passed
        else f"envelope violations {violations} over {summary}; {elapsed:.1f} s"
    )
    _report(capsys, 11, passed, detail)
    assert not violations, detail
    assert in_budget, detail
