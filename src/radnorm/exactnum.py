"""Exact rational scalars and the combinatorial primitives built on them.

Every scalar in this package is a `fractions.Fraction` (re-exported as
`Rational`): always stored reduced with a positive denominator, arithmetic
is exact, and division by zero raises instead of producing a value.  The
module holds no state: each primitive is computed afresh on every call, and
the package's only memo is `symdiff._fixed_sample_points`.
"""

from __future__ import annotations

import math
import numbers
import re
import sys
from fractions import Fraction
from operator import index

__all__ = [
    "Rational",
    "as_rational",
    "parse_rational",
    "format_rational",
    "factorial",
    "pochhammer",
    "binomial",
    "rational_pow",
]

Rational = Fraction

# Wire format: optional sign on the numerator, "/q" omitted when q == 1; ASCII digits only.
_RATIONAL_RE = re.compile(r"[+-]?[0-9]+(?:/[0-9]+)?")


def parse_rational(text: str) -> Rational:
    """Parse "p/q" (or a bare integer "p") into a reduced Rational.

    The denominator, when present, must be an unsigned nonzero integer.
    Decimals, whitespace and signs on the denominator are rejected with
    ValueError; non-reduced input is accepted and normalized.
    """
    if not _RATIONAL_RE.fullmatch(text):
        raise ValueError(f"not a rational in p/q form: {text!r}")
    num, _, den = text.partition("/")
    try:
        num, den = int(num), int(den or 1)
    except ValueError:  # the pattern matched, so only int()'s digit limit is left
        raise ValueError(f"numerator or denominator over {sys.get_int_max_str_digits()} digits") from None
    if den == 0:
        raise ValueError(f"zero denominator: {text!r}")
    return Fraction(num, den)


def as_rational(value) -> Rational:
    """An exact input value as a Rational.

    Floats (NaN included) and other inexact reals are rejected with TypeError
    rather than converted from their binary expansion; so are bools.
    """
    if isinstance(value, bool) or (
        isinstance(value, numbers.Real) and not isinstance(value, numbers.Rational)
    ):
        raise TypeError(f"expected an exact rational, got {type(value).__name__} {value!r}")
    return Fraction(value)


def _as_int(value) -> int:
    """An integer argument as an int; bools and inexact values such as 2.0 raise TypeError."""
    if isinstance(value, bool):
        raise TypeError(f"expected an integer, got bool {value!r}")
    return index(value)


def format_rational(value) -> str:
    """Render a value in the wire format "p/q" ("p" when the denominator is 1).

    Values past int()'s process-wide digit limit go through ``Decimal``,
    which has none; the limit itself is left alone.
    """
    value = as_rational(value)
    try:
        return str(value)
    except ValueError:
        from decimal import Decimal

        num, den = Decimal(value.numerator), Decimal(value.denominator)
        return f"{num}/{den}" if den != 1 else f"{num}"


def factorial(k: int) -> int:
    """k! as an exact integer; k must be a nonnegative integer."""
    return math.factorial(_as_int(k))


def pochhammer(nu, k: int) -> Rational:
    """Falling factorial (nu)_k = nu (nu-1) ... (nu-k+1), with (nu)_0 = 1.

    For nu = p/q this is the integer product p (p-q) ... (p-(k-1)q) over
    q^k, reduced once at the end.
    """
    k = _as_int(k)
    if k < 0:
        raise ValueError("pochhammer order must be nonnegative")
    nu = as_rational(nu)
    p, q = nu.numerator, nu.denominator
    return Fraction(math.prod(range(p, p - k * q, -q)), q ** k)


def binomial(nu, k: int) -> Rational:
    """Generalized binomial coefficient (nu)_k / k! for rational nu."""
    return pochhammer(nu, k) / factorial(k)


def _int_nth_root(value: int, degree: int) -> int | None:
    """Exact degree-th root of a nonnegative integer, or None if not perfect."""
    # value >= 0: rational_pow rejects a negative base, and denominators are positive.
    if value < 2 or degree == 1:
        return value
    if degree >= value.bit_length():  # 2 <= value < 2^degree: no integer root
        return None
    # Start above the true root, then Newton-descend to the floor root.
    root = 1 << -(-value.bit_length() // degree)
    while True:
        better = ((degree - 1) * root + value // root ** (degree - 1)) // degree
        if better >= root:
            break
        root = better
    return root if root ** degree == value else None


def rational_pow(base, exponent) -> Rational:
    """base ** exponent exactly, where the exponent may be a Rational.

    Raises ValueError when the true value is irrational (non-perfect root)
    or complex (negative base, fractional exponent), and ZeroDivisionError
    for a zero base with a negative exponent.
    """
    base = as_rational(base)
    exponent = as_rational(exponent)
    if base == 0 and exponent < 0:
        raise ZeroDivisionError(f"{base} ** {exponent}: zero to a negative power")
    if exponent.denominator == 1:
        return base ** exponent.numerator
    if base < 0:
        raise ValueError(f"{base} ** {exponent} is not real")
    num = _int_nth_root(base.numerator, exponent.denominator)
    den = _int_nth_root(base.denominator, exponent.denominator)
    if num is None or den is None:
        raise ValueError(f"{base} ** {exponent} is not rational")
    return Fraction(num, den) ** exponent.numerator
