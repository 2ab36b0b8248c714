import math
import random
import sys
import time
from decimal import Decimal
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from radnorm import NormKind, SamplePoint, grad_norm_sq
from radnorm.exactnum import (
    binomial,
    factorial,
    format_rational,
    parse_rational,
    pochhammer,
    rational_pow,
)
from reference import reference_pochhammer


def test_factorial_base_cases():
    assert factorial(0) == 1
    assert factorial(5) == 120


def test_factorial_20_against_iterated_multiplication():
    expected = 1
    for i in range(1, 21):
        expected *= i
    assert factorial(20) == expected == 2432902008176640000


def test_factorial_rejects_negative():
    with pytest.raises(ValueError):
        factorial(-1)


def test_pochhammer_order_zero_is_one_for_every_argument():
    assert pochhammer(Fraction(7, 3), 0) == 1
    assert pochhammer(0, 0) == 1
    assert pochhammer(-5, 0) == 1


def test_pochhammer_small_values():
    assert pochhammer(3, 2) == 6
    assert pochhammer(Fraction(1, 2), 2) == Fraction(-1, 4)


def test_pochhammer_rejects_negative_order():
    with pytest.raises(ValueError):
        pochhammer(Fraction(1), -1)


def test_pochhammer_memo_does_not_answer_a_float_for_its_exact_twin():
    # 0.5 == Fraction(1, 2), yet only the exact value is an argument.
    assert pochhammer(Fraction(1, 2), 1) == Fraction(1, 2)
    with pytest.raises(TypeError):
        pochhammer(0.5, 1)


def test_pochhammer_recurrences_on_random_rationals():
    rng = random.Random(7)
    for _ in range(200):
        nu = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        k = rng.randint(1, 8)
        assert pochhammer(nu, k) == nu * pochhammer(nu - 1, k - 1)
        assert pochhammer(nu, k) == pochhammer(nu, k - 1) * (nu - k + 1)


def test_pochhammer_and_binomial_equal_the_fraction_product():
    rng = random.Random(24)
    cases = [(p, q, k) for p in (-50, 0, 50) for q in (1, 12) for k in (0, 1, 160)]
    cases += [(rng.randint(-50, 50), rng.randint(1, 12), rng.randint(0, 160)) for _ in range(300)]
    for p, q, k in cases:
        nu = Fraction(p, q)
        expected = reference_pochhammer(nu, k)
        assert pochhammer(nu, k) == expected, (nu, k)
        assert binomial(nu, k) == expected / math.factorial(k), (nu, k)
    assert pochhammer(-3, 4) == reference_pochhammer(-3, 4) == 360  # an int nu, q = 1


def test_binomial_small_values():
    assert binomial(1, 1) == 1
    assert binomial(Fraction(-1, 2), 2) == Fraction(3, 8)
    assert binomial(5, 2) == 10


def test_binomial_matches_pascal_recurrence_for_integers():
    rows = [[1]]
    for n in range(1, 13):
        prev = rows[-1] + [0]
        rows.append([1] + [prev[k - 1] + prev[k] for k in range(1, n + 1)])
    for n in range(13):
        for k in range(n + 1):
            assert binomial(n, k) == rows[n][k]


def test_binomial_vanishes_exactly_on_short_nonnegative_integers():
    for nu in range(8):
        for k in range(10):
            assert (binomial(nu, k) == 0) == (nu < k)
    # never zero for negative or non-integer rational arguments
    rng = random.Random(11)
    for _ in range(100):
        nu = Fraction(rng.randint(-30, 30), rng.choice([2, 3, 4, 5, 7]))
        if nu.denominator == 1 and nu >= 0:
            continue
        assert binomial(nu, rng.randint(0, 9)) != 0
    for nu in range(-6, 0):
        assert binomial(nu, 4) != 0


def test_results_are_stored_reduced():
    rng = random.Random(3)
    for _ in range(100):
        nu = Fraction(rng.randint(-20, 20), rng.randint(1, 12))
        value = binomial(nu, rng.randint(0, 7))
        assert value.denominator > 0
        assert gcd(abs(value.numerator), value.denominator) == 1


def test_parse_format_round_trip():
    for text in ["-3/2", "7", "0", "+5/3", "4/6", "-10/4"]:
        value = parse_rational(text)
        assert parse_rational(format_rational(value)) == value
    assert parse_rational("4/6") == Fraction(2, 3)  # normalized on read
    assert format_rational(Fraction(-3, 2)) == "-3/2"
    assert format_rational(Fraction(7)) == "7"


@given(st.fractions())
def test_format_then_parse_is_the_identity(value):
    text = format_rational(value)
    assert parse_rational(text) == value
    assert type(parse_rational(text)) is Fraction


@given(st.integers(), st.integers(min_value=1), st.sampled_from(["", "+", "-"]))
def test_parse_then_format_is_the_reduced_form(p, q, sign):
    text = f"{sign}{abs(p)}/{q}"
    value = parse_rational(text)
    assert value == Fraction(-abs(p) if sign == "-" else abs(p), q)
    reduced = f"{value.numerator}" + ("" if value.denominator == 1 else f"/{value.denominator}")
    assert format_rational(value) == reduced


@pytest.mark.parametrize("bad", ["1/0", "0/0", "1.5", "", "3/-4", "a", "1 /2", "1/2/3", "/3",
                                 "3\n", "1/2\n", "\u0663/\u0664", "\uff13"])
def test_parse_rejects_malformed_input(bad):
    with pytest.raises(ValueError):
        parse_rational(bad)


def test_values_past_the_int_digit_limit():
    limit = sys.get_int_max_str_digits()
    value = Fraction(-(10 ** limit) - 7, 3 ** 10_000)  # 4,301 and 4,772 digits at the default
    num, den = format_rational(value).split("/")
    assert Fraction(int(Decimal(num)), int(Decimal(den))) == value
    assert sys.get_int_max_str_digits() == limit  # the process-wide limit is untouched
    with pytest.raises(ValueError, match=f"^numerator or denominator over {limit} digits$"):
        parse_rational("1/" + "3" * (limit + 1))


def test_division_by_zero_is_an_error():
    with pytest.raises(ZeroDivisionError):
        Fraction(1) / Fraction(0)


def test_rational_pow_exact_cases():
    assert rational_pow(Fraction(25), Fraction(1, 2)) == 5
    assert rational_pow(Fraction(8, 27), Fraction(-2, 3)) == Fraction(9, 4)
    assert rational_pow(Fraction(5), 3) == 125
    assert rational_pow(Fraction(5, 2), -2) == Fraction(4, 25)
    assert rational_pow(Fraction(-2), 3) == -8
    assert rational_pow(Fraction(0), Fraction(1, 2)) == 0


@pytest.mark.parametrize("exponent", [-1, Fraction(-3), Fraction(-1, 2), Fraction(-7, 3)], ids=str)
def test_rational_pow_of_zero_to_a_negative_power_names_both(exponent):
    # -1 and -3 take the integer-exponent branch, -1/2 and -7/3 the root branch.
    with pytest.raises(ZeroDivisionError, match=rf"^0 \*\* {exponent}: zero to a negative power$"):
        rational_pow(0, exponent)


def test_rational_pow_rejects_irrational_results():
    with pytest.raises(ValueError):
        rational_pow(Fraction(2), Fraction(1, 2))
    with pytest.raises(ValueError):
        rational_pow(Fraction(-4), Fraction(1, 2))
    with pytest.raises(ZeroDivisionError):
        rational_pow(Fraction(0), Fraction(-1, 2))


def test_rational_pow_round_trips_random_powers():
    rng = random.Random(5)
    for _ in range(100):
        base = Fraction(rng.randint(1, 30), rng.randint(1, 30))
        q = rng.randint(1, 4)
        p = rng.randint(-3, 3)
        assert rational_pow(base ** q, Fraction(p, q)) == base ** p


def test_rational_pow_with_a_huge_root_degree_fails_fast():
    # Only 0 and 1 have an integer d-th root below 2^d, so no root is searched.
    start = time.perf_counter()
    with pytest.raises(ValueError, match="is not rational"):
        rational_pow(4, Fraction(1, 2 ** 64))
    with pytest.raises(ValueError, match="is not rational"):
        rational_pow(Fraction(3, 5), Fraction(1, 2 ** 40))
    with pytest.raises(ValueError, match="is not rational"):
        grad_norm_sq(2, NormKind.power(Fraction(1, 2 ** 64)), 1, SamplePoint((1, 1)))
    assert time.perf_counter() - start < 1.0
    # The largest degree that still has a root: 2^1024 has 1,025 bits.
    assert rational_pow(2 ** 1024, Fraction(1, 1024)) == 2
    assert rational_pow(Fraction(1, 2 ** 1024), Fraction(-3, 1024)) == 8
    assert rational_pow(1, Fraction(1, 2 ** 64)) == 1
