"""The integer half-shift identity against its Fraction form in reference.py."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from radnorm import constants, exactnum
from radnorm.constants import _half_identity_sides, half_identity_check
from reference import reference_half_sides

nus = st.builds(
    Fraction, st.integers(min_value=-60, max_value=60), st.integers(min_value=1, max_value=12)
)


@settings(max_examples=150, deadline=None)
@given(nu=nus, m=st.integers(min_value=0, max_value=20))
def test_each_integer_side_is_the_reference_side_scaled(nu, m):
    # Each side is checked, not only the verdict: sides that agree for a wrong
    # reason (say, both constant) fail here.
    lhs, rhs = _half_identity_sides(nu, m)
    ref_lhs, ref_rhs = reference_half_sides(nu, m)
    scale = (4 * nu.denominator) ** m
    assert lhs == ref_lhs * scale
    assert rhs == ref_rhs * scale
    assert half_identity_check(nu, m)


def test_half_identity_check_never_calls_pochhammer(monkeypatch):
    # The integer sides need no Pochhammer symbol, so fresh nu leave nothing behind.
    def refuse(nu, k):
        raise AssertionError(f"pochhammer({nu}, {k}) was called")

    monkeypatch.setattr(exactnum, "pochhammer", refuse)
    for i in range(50):
        assert half_identity_check(Fraction(2 * i + 1, 13), 10)


def test_check_reports_unequal_sides(monkeypatch):
    monkeypatch.setattr(constants, "_half_identity_sides", lambda nu, m: (1, 2))
    assert not half_identity_check(0, 1)
