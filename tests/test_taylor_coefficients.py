"""The integer profile coefficients of both families against the Fraction
construction they replaced (``reference.py``), pair for pair; the logarithm
constants as the s^2 coefficients of the power constants; and the one
``Fraction`` each formula route builds per call."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radnorm import constants
from radnorm.constants import (
    NormKind,
    _profile_terms,
    _terms,
    ell_closed,
    ell_recursive,
    gamma_closed,
    gamma_recursive,
    log_coeffs,
    power_coeffs,
    taylor_compose_norm_sq,
)
from reference import reference_log_terms, reference_power_terms

# s = 0 and the even integers make the upper coefficients vanish.
EXPONENTS = [Fraction(v) for v in (0, 2, 4, -2, 1, -1, 3)] + [
    Fraction(1, 2), Fraction(-5, 3), Fraction(7, 4), Fraction(23, 9), Fraction(-79, 14),
]
LOG = NormKind.logarithm()


def test_power_terms_are_the_reference_pairs_up_to_order_160():
    for k in range(161):
        for s in EXPONENTS:
            assert _terms(NormKind.power(s), k) == reference_power_terms(s, k), (s, k)


@settings(max_examples=200, deadline=None)
@given(
    s=st.builds(Fraction, st.integers(min_value=-80, max_value=80),
                st.integers(min_value=1, max_value=14)),
    k=st.integers(min_value=0, max_value=160),
)
def test_power_terms_are_the_reference_pairs(s, k):
    assert _terms(NormKind.power(s), k) == reference_power_terms(s, k)


def test_log_terms_are_the_reference_pairs_up_to_order_160():
    for k in range(1, 161):
        assert _terms(LOG, k) == reference_log_terms(k) == _profile_terms(log_coeffs(), k), k


def test_the_coefficient_callables_still_give_the_constants():
    for n, k in ((2, 0), (2, 7), (5, 12), (9, 31)):
        for s in (Fraction(-5, 3), Fraction(2), Fraction(7, 4)):
            assert taylor_compose_norm_sq(n, k, power_coeffs(s)) == gamma_closed(n, s, k)
        if k:
            assert taylor_compose_norm_sq(n, k, log_coeffs()) == ell_closed(n, k)


def _low_coefficients(values, count):
    # The s^0 .. s^(count-1) coefficients of the polynomial through (s, values[s]),
    # s = 0..len(values)-1: forward differences times C(s, j) expanded in powers of s.
    coeffs, basis, row = [Fraction(0)] * count, [Fraction(1)], list(values)
    for j in range(len(values)):
        for i, c in enumerate(basis[:count]):
            coeffs[i] += row[0] * c
        row = [b - a for a, b in zip(row, row[1:])]
        # C(s, j+1) = C(s, j) (s - j) / (j + 1)
        basis = [(lower - j * upper) / (j + 1) for lower, upper in zip([0, *basis], [*basis, 0])]
    return coeffs


def test_the_log_constant_is_the_s_squared_coefficient_of_the_power_constant():
    # log|x| = lim (|x|^s - 1) / s, so D^k |x|^s = s D^k log|x| + O(s^2) for k >= 1, and
    # the power constant, a polynomial of degree <= 2k in s, starts s^2 * (log constant).
    # Only power values enter the interpolation.
    for n in range(1, 7):
        for k in range(1, 13):
            for route in (gamma_closed, gamma_recursive):
                c0, c1, c2 = _low_coefficients([route(n, s, k) for s in range(2 * k + 1)], 3)
                assert (c0, c1) == (0, 0), (route.__name__, n, k)
                assert c2 == ell_closed(n, k) == ell_recursive(n, k), (route.__name__, n, k)


@pytest.mark.parametrize("route, args", [
    (gamma_closed, (1, Fraction(-5, 3), 9)),
    (gamma_closed, (7, Fraction(-5, 3), 40)),
    (gamma_recursive, (1, Fraction(7, 2), 9)),
    (gamma_recursive, (7, Fraction(7, 2), 40)),
    (ell_closed, (1, 9)),
    (ell_closed, (7, 40)),
    (ell_recursive, (1, 9)),
    (ell_recursive, (7, 40)),
], ids=lambda v: getattr(v, "__name__", None) or "-".join(map(str, v)))
def test_each_route_builds_one_fraction_per_call(route, args, monkeypatch):
    built = []

    def counted(*fraction_args):
        built.append(fraction_args)
        return Fraction(*fraction_args)

    monkeypatch.setattr(constants, "Fraction", counted)
    value = route(*args)
    assert len(built) == 1
    assert isinstance(value, Fraction) and value > 0
