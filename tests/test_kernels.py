"""Closed form == dimension recursion == the term-by-term reference sum."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radnorm.constants import (
    ell_closed,
    ell_1d,
    ell_recursive,
    gamma_1d,
    gamma_closed,
    gamma_recursive,
)
from reference import reference_ell, reference_gamma

exponents = st.builds(
    Fraction, st.integers(min_value=-40, max_value=40), st.integers(min_value=1, max_value=9)
)
dimensions = st.integers(min_value=1, max_value=12)


@settings(max_examples=80, deadline=None)
@given(n=dimensions, s=exponents, k=st.integers(min_value=0, max_value=30))
def test_power_kernels_match_reference(n, s, k):
    expected = reference_gamma(n, s, k)
    assert gamma_closed(n, s, k) == gamma_recursive(n, s, k) == expected
    if n == 1:
        assert gamma_1d(s, k) == expected


@settings(max_examples=40, deadline=None)
@given(n=dimensions, k=st.integers(min_value=1, max_value=30))
def test_log_kernels_match_reference(n, k):
    expected = reference_ell(n, k)
    assert ell_closed(n, k) == ell_recursive(n, k) == expected
    if n == 1:
        assert ell_1d(k) == expected


@pytest.mark.parametrize("k", [40, 160])
@pytest.mark.parametrize("n, s", [(1, Fraction(-5, 3)), (7, Fraction(7, 2)), (12, Fraction(23, 9))])
def test_power_kernels_match_reference_at_high_order(n, s, k):
    assert gamma_closed(n, s, k) == gamma_recursive(n, s, k) == reference_gamma(n, s, k)


@pytest.mark.parametrize("k", [40, 160])
def test_log_kernels_match_reference_at_high_order(k):
    assert ell_closed(5, k) == ell_recursive(5, k) == reference_ell(5, k)
