"""Acceptance suite: one test per criterion, exact equality throughout.

Each test prints one PASS/FAIL line (visible with ``pytest -s``) and asserts
its stated runtime budget.
"""

import random
import time
from fractions import Fraction
from functools import lru_cache

from golden import ELL_POLYS, GAMMA_POLYS, S_VALUES
from radnorm.constants import (
    NormKind,
    ell2_special,
    ell_1d,
    ell_closed,
    ell_recursive,
    gamma_1d,
    gamma_closed,
    gamma_recursive,
    gamma_special,
    half_identity_check,
)
from radnorm.exactnum import factorial, pochhammer
from radnorm.symdiff import (
    SamplePoint,
    TermSum,
    default_sample_points,
    differentiate,
    dimension_split_check,
    functions_equal,
    grad_norm_sq,
    is_zero_function,
    laplacian,
    laplacian_recursion_check,
    random_rational,
    seed,
    tilde_norm_sq,
)

LOG = NormKind.logarithm()
ORACLE_S = [Fraction(-2), Fraction(-1, 2), Fraction(1), Fraction(3), Fraction(2)]


class _Budget:
    def __init__(self, criterion, seconds):
        self.criterion = criterion
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None and elapsed < self.seconds else "FAIL"
        print(f"[criterion {self.criterion:>2}] {status} ({elapsed:.2f}s, budget {self.seconds}s)")
        if exc_type is None:
            assert elapsed < self.seconds, f"criterion {self.criterion} exceeded {self.seconds}s"
        return False


def test_criterion_01_golden_table():
    with _Budget(1, 1.0):
        for n in range(1, 9):
            for k, poly in GAMMA_POLYS.items():
                for s in S_VALUES:
                    assert gamma_closed(n, s, k) == poly(s, n)
            for k, poly in ELL_POLYS.items():
                assert ell_closed(n, k) == poly(n)


def test_criterion_02_one_dimensional_collapse():
    with _Budget(2, 1.0):
        rng = random.Random(2024)
        exponents = [Fraction(rng.randint(-12, 12), rng.randint(1, 9)) for _ in range(20)]
        for k in range(11):
            for s in exponents:
                assert gamma_closed(1, s, k) == pochhammer(s, k) ** 2
                assert gamma_1d(s, k) == pochhammer(s, k) ** 2
            if k >= 1:
                assert ell_closed(1, k) == factorial(k - 1) ** 2
                assert ell_1d(k) == factorial(k - 1) ** 2


def test_criterion_03_specialization():
    with _Budget(3, 1.0):
        for n in range(1, 7):
            for k in range(7):
                expected = (
                    Fraction(2) ** k
                    * pochhammer(Fraction(n, 2) + k - 2, k)
                    * pochhammer(n + k - 3, k)
                )
                assert gamma_closed(n, Fraction(-(n - 2)), k) == expected == gamma_special(n, k)
        for k in range(1, 9):
            expected = Fraction(2) ** (k - 1) * factorial(k - 1) ** 2
            assert ell_closed(2, k) == expected == ell2_special(k)


def test_criterion_04_closed_vs_recursive():
    with _Budget(4, 1.0):
        for n in range(1, 5):
            for k in range(7):
                for s in S_VALUES:
                    assert gamma_closed(n, s, k) == gamma_recursive(n, s, k)
                if k >= 1:
                    assert ell_closed(n, k) == ell_recursive(n, k)


@lru_cache(maxsize=None)
def _oracle_grid():
    """Rescaled oracle values for N in [1,4], k in [1,5], all kinds, per point."""
    results = []
    for n in range(1, 5):
        points = default_sample_points(n, seed=11)
        kinds = [NormKind.power(s) for s in ORACLE_S] + [LOG]
        for kind in kinds:
            for k in range(1, 6):
                values = [grad_norm_sq(n, kind, k, p, rescaled=True) for p in points]
                closed = gamma_closed(n, kind.s, k) if kind.is_power else ell_closed(n, k)
                results.append((n, kind, k, values, closed))
    return results


def test_criterion_05_oracle_equivalence():
    with _Budget(5, 60.0):
        grid = _oracle_grid()
        assert len(grid) == 4 * 6 * 5
        for n, kind, k, values, closed in grid:
            assert len(values) >= 3
            for value in values:
                assert value == closed, f"n={n} k={k} {kind}"


def test_criterion_06_constancy_across_points():
    with _Budget(6, 60.0):
        for n, kind, k, values, _ in _oracle_grid():
            assert len(set(values)) == 1, f"n={n} k={k} {kind}"


def test_criterion_07_half_identity():
    with _Budget(7, 1.0):
        rng = random.Random(777)
        values = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(50)]
        for nu in values:
            for m in range(11):
                assert half_identity_check(nu, m)


def test_criterion_08_dimension_splitting():
    with _Budget(8, 30.0):
        for n in (2, 3):
            points = default_sample_points(n, seed=8)[:5]
            assert len(points) == 5
            for kind in (NormKind.power(3), NormKind.power(Fraction(-1, 2)), LOG):
                for k in range(1, 5):
                    for p in points:
                        assert dimension_split_check(n, kind, k, p)


def test_criterion_09_weighted_identity_and_tilde_counterexample():
    with _Budget(9, 1.0):
        rng = random.Random(99)
        for n in range(1, 4):
            points = []
            while len(points) < 5:
                coords = tuple(random_rational(rng) for _ in range(n))
                if any(coords):
                    points.append(SamplePoint(coords))
            for kind in (NormKind.power(3), NormKind.power(Fraction(-1, 2)), LOG):
                for k in range(1, 5):
                    for p in points:
                        assert grad_norm_sq(n, kind, k, p, weighted=True, rescaled=True) == \
                            grad_norm_sq(n, kind, k, p, weighted=False, rescaled=True)
        v1 = tilde_norm_sq(2, LOG, 2, SamplePoint((Fraction(1), Fraction(0))), rescaled=True)
        v2 = tilde_norm_sq(2, LOG, 2, SamplePoint((Fraction(1), Fraction(1))), rescaled=True)
        assert (v1, v2) == (2, 1) and v1 != v2


def test_criterion_10_laplacian_machinery():
    with _Budget(10, 5.0):
        rng = random.Random(1010)
        exponents = [Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(20)]
        for n in range(1, 6):
            for nu in exponents:
                u = TermSum.single(n, nu, (0,) * n, 0, 1)
                expected = TermSum.single(n, nu, (0,) * n, -2, nu * (nu + n - 2))
                assert functions_equal(laplacian(u), expected)
        comps = seed(2, LOG)
        divergence = differentiate(comps[0], 1) + differentiate(comps[1], 2)
        assert is_zero_function(divergence)
        for n in range(2, 5):
            for k in range(1, 5):
                assert laplacian_recursion_check(n, k)


def test_criterion_11_vanishing_locus():
    with _Budget(11, 5.0):
        for m in range(4):
            for n in range(1, 6):
                points = default_sample_points(n, seed=11)[:-2]
                for k in range(2 * m + 1, 2 * m + 5):
                    assert gamma_closed(n, 2 * m, k) == 0
                    kind = NormKind.power(2 * m)
                    for p in points:
                        assert grad_norm_sq(n, kind, k, p, rescaled=True) == 0
