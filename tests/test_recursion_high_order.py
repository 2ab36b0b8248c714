"""Both formula routes at high order against values that share no code with
either kernel: product forms, falling products and the polynomial degree in
n.  Each check runs the dimension recursion and the closed form, and fails if
that route's inner sums go wrong at that order.  Two guards pin the
recursion's arithmetic: E(n, l) as a running product, and one binomial per
inner-sum term."""

from fractions import Fraction
from math import factorial

import pytest

from radnorm import constants
from radnorm.constants import (
    NormKind,
    _closed_kernel,
    _even_product,
    _evens,
    _recursive_kernel,
    _terms,
    ell2_special,
    ell_closed,
    ell_recursive,
    gamma_closed,
    gamma_even,
    gamma_recursive,
    gamma_special,
)

S = Fraction(-5, 3)
ROUTES = {"recursive": (gamma_recursive, ell_recursive), "closed": (gamma_closed, ell_closed)}
each_route = pytest.mark.parametrize("gamma, ell", ROUTES.values(), ids=ROUTES)


@each_route
@pytest.mark.parametrize("k", [200, 399, 400])
@pytest.mark.parametrize("n", [3, 8])
def test_recursion_meets_the_fundamental_solution_product(n, k, gamma, ell):
    assert gamma(n, 2 - n, k) == gamma_special(n, k)


@each_route
@pytest.mark.parametrize("m", [0, 1, 2, 3, 17, 50, 101, 199, 200])
def test_recursion_meets_the_even_product_on_the_diagonal(m, gamma, ell):
    for n in (2, 5):
        assert gamma(n, 2 * m, 2 * m) == gamma_even(n, m)


@each_route
def test_one_dimensional_recursion_is_the_squared_falling_product(gamma, ell):
    for s in (S, Fraction(7, 2)):
        falling = Fraction(1)
        for k in range(401):
            if k % 9 == 0 or k >= 398:
                assert gamma(1, s, k) == falling ** 2, k
            falling *= s - k


@each_route
@pytest.mark.parametrize("k", [1, 2, 3, 10, 41, 160, 399, 400])
def test_log_recursion_meets_the_product_forms(k, gamma, ell):
    assert ell(1, k) == factorial(k - 1) ** 2
    assert ell(2, k) == ell2_special(k)


def _differences(values, order):
    for _ in range(order):
        values = [b - a for a, b in zip(values, values[1:])]
    return values


@each_route
@pytest.mark.parametrize("k", [40, 80])
def test_the_constant_is_a_polynomial_of_degree_half_k_in_the_dimension(k, gamma, ell):
    half = k // 2
    values = [gamma(n, S, k) for n in range(1, half + 3)]
    assert _differences(values, half + 1) == [0]
    assert _differences(values, half)[0] != 0
    logs = [ell(n, k) for n in range(1, half + 3)]
    assert _differences(logs, half + 1) == [0]


def test_running_even_products_match_the_factorial_form():
    for n in range(13):
        expected = [_even_product(n, l) for l in range(201)]
        for k in range(401):
            assert _evens(n, k) == expected[: k // 2 + 1], (n, k)


@pytest.mark.parametrize("n", [2, 7, 12])
def test_recursive_kernel_takes_one_binomial_per_inner_sum_term(n, monkeypatch):
    k = 160
    lo = (k + 1) // 2
    nums, den = _terms(NormKind.power(S), k)
    terms = sum(k - l - lo + 1 for l in range(k // 2 + 1))  # the (p, l) pairs
    calls, real_comb = [], constants.comb

    def counting_comb(a, b):
        calls.append((a, b))
        return real_comb(a, b)

    monkeypatch.setattr(constants, "comb", counting_comb)
    recursive = _recursive_kernel(k, nums, den, _evens(n - 1, k))
    recursive_calls, calls[:] = len(calls), []
    closed = _closed_kernel(n, k, nums, den)
    assert recursive == closed
    assert recursive_calls <= len(nums) + terms
    assert 2 * recursive_calls <= len(calls) + 2 * len(nums)  # about half the closed kernel's
