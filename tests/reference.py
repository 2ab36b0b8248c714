"""Reference implementations, written the plain way, for cross-checks.

The Pochhammer symbol as a running Fraction product, the way the package
computed it before it took one integer product over q^k; ``pochhammer`` and
``binomial`` are checked against it.  The closed double sum term by term in
Fraction, with no integer tricks; the package's closed and recursive kernels
are checked against it.  The profile coefficients of both families from
Fraction values over their lcm, the way the package built them before it
moved them to integers.  The product
forms and the dimension recursion as Fraction and ``pochhammer`` expressions,
the way they were written before the package moved them to integers.  The symbolic
Laplacian and squared norm folded with repeated ``TermSum.__add__``; the
package's one-pass sums are checked against them.  The ``TermSum``
operations with a ``Fraction`` accumulator of their own each, the way the
package wrote them before every operation went through one merge.  Function equality by
clearing negative powers of r^2 and expanding every r^(2e) into
(sum x_i^2)^e, the way the package decided it before it reduced by
x_n^2 = r^2 - sum_{i<n} x_i^2.  The oracle walk as an explicit depth-first
path of nodes, each with its own iterator over the axes its children take,
the way the package walked the multisets before it took them from
``combinations_with_replacement`` onto one prefix stack.
"""

from collections import defaultdict
from collections.abc import Mapping
from fractions import Fraction
from itertools import combinations_with_replacement
from math import lcm, prod
from operator import index, mul

from radnorm.exactnum import as_rational, binomial, factorial, pochhammer
from radnorm.symdiff import Term, TermSum, _step, derivative


def reference_pochhammer(nu, k):
    """(nu)_k = nu (nu-1) ... (nu-k+1) as a running Fraction product."""
    return prod((Fraction(nu) - j for j in range(k)), start=Fraction(1))


def reference_norm_sq(n, k, coeff):
    """k! sum_l (k-2l)! l! ((n-3)/2+l)_l (sum_p 2^(2p-k+l) c_p C(p,k-p) C(k-p,l))^2."""
    total = Fraction(0)
    for l in range(k // 2 + 1):
        inner = Fraction(0)
        for p in range((k + 1) // 2, k - l + 1):
            inner += (
                Fraction(2) ** (2 * p - k + l)
                * coeff(p)
                * binomial(p, k - p)
                * binomial(k - p, l)
            )
        total += (
            factorial(k - 2 * l)
            * factorial(l)
            * pochhammer(Fraction(n - 3, 2) + l, l)
            * inner ** 2
        )
    return factorial(k) * total


def reference_gamma(n, s, k):
    s = Fraction(s)
    return reference_norm_sq(n, k, lambda p: binomial(s / 2, p))


def reference_ell(n, k):
    return reference_norm_sq(n, k, lambda p: Fraction((-1) ** p, 2 * p))


def _over_lcm(values):
    den = lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


def reference_power_terms(s, k):
    """C(s/2, p) for ceil(k/2) <= p <= k from a Fraction running product, as
    integer numerators over the lcm of their denominators."""
    half, term, terms = Fraction(s) / 2, Fraction(1), []
    for p in range(k + 1):
        terms.append(term)
        term = term * (half - p) / (p + 1)
    return _over_lcm(terms[(k + 1) // 2:])


def reference_log_terms(k):
    """(-1)^(p-1)/(2p) for ceil(k/2) <= p <= k, over the lcm of their denominators."""
    return _over_lcm([Fraction((-1) ** (p - 1), 2 * p) for p in range((k + 1) // 2, k + 1)])


def reference_gamma_even(n, m):
    """2^(2m) m! (2m)! (n/2+m-1)_m."""
    return Fraction(2) ** (2 * m) * factorial(m) * factorial(2 * m) * pochhammer(
        Fraction(n, 2) + m - 1, m
    )


def reference_gamma_even_deep(n, m, memo=None):
    """E(1, m) = ((2m)!)^2, E(n, m) = (2m)! sum_l (2(m-l))!/(2l)! C(m,l)^2 E(n-1, l)."""
    memo = {} if memo is None else memo
    if n == 1:
        return Fraction(factorial(2 * m)) ** 2
    if (n, m) not in memo:
        total = Fraction(0)
        for l in range(m + 1):
            total += (
                Fraction(factorial(2 * (m - l)), factorial(2 * l))
                * binomial(m, l) ** 2
                * reference_gamma_even_deep(n - 1, l, memo)
            )
        memo[n, m] = factorial(2 * m) * total
    return memo[n, m]


def reference_even_table(n, k, memo=None):
    """E(n, l) for l = 0..floor(k/2) as the ints the recursive kernel takes:
    E(0, l) = [l == 0], and ``reference_gamma_even_deep`` above dimension 0."""
    table = [Fraction(l == 0) if n == 0 else reference_gamma_even_deep(n, l, memo)
             for l in range(k // 2 + 1)]
    assert all(e.denominator == 1 for e in table), (n, k)
    return [e.numerator for e in table]


def reference_gamma_special(n, k):
    """2^k (n/2 + k - 2)_k (n + k - 3)_k."""
    return Fraction(2) ** k * pochhammer(Fraction(n, 2) + k - 2, k) * pochhammer(
        Fraction(n + k - 3), k
    )


def reference_ell2_special(k):
    """2^(k-1) ((k-1)!)^2."""
    return Fraction(2) ** (k - 1) * factorial(k - 1) ** 2


def reference_phi_deriv_at_zero(m, k):
    """2^(2m-k) k! C(m, k-m) for m <= k <= 2m, else 0."""
    if not m <= k <= 2 * m:
        return Fraction(0)
    return Fraction(2) ** (2 * m - k) * factorial(k) * binomial(m, k - m)


def reference_recursive_norm_sq(n, k, coeff, even=reference_gamma_even):
    """k! sum_l (k-2l)!/(2l)! (sum_p 2^(2p-k) c_p C(p,k-p) C(k-p,l))^2 E(n-1, l),
    one Fraction per outer term."""
    total = Fraction(0)
    for l in range(k // 2 + 1):
        inner = Fraction(0)
        for p in range((k + 1) // 2, k - l + 1):
            inner += Fraction(2) ** (2 * p - k) * coeff(p) * binomial(p, k - p) * binomial(k - p, l)
        total += Fraction(factorial(k - 2 * l), factorial(2 * l)) * inner ** 2 * even(n - 1, l)
    return factorial(k) * total


def reference_half_sides(nu, m):
    """Both sides of the half-shift identity, term by term in Fraction:
    sum_l (2l)!/(4^l l!) (nu+m-l)_(m-l) C(m,l) and (nu+m+1/2)_m."""
    nu = Fraction(nu)
    lhs = Fraction(0)
    for l in range(m + 1):
        lhs += (
            Fraction(factorial(2 * l), 2 ** (2 * l) * factorial(l))
            * pochhammer(nu + m - l, m - l)
            * binomial(m, l)
        )
    return lhs, pochhammer(nu + m + Fraction(1, 2), m)


def reference_laplacian(u):
    """The n second partials of a TermSum, added one ``+`` at a time."""
    total = TermSum.build(u.n_vars, u.radial_base, {})
    for axis in range(1, u.n_vars + 1):
        total = total + u.differentiate(axis).differentiate(axis)
    return total


def reference_grad_norm_sq_symbolic(n, kind, k):
    """sum over sorted multisets of weight * (D u)^2, added one ``+`` at a time."""
    total = None
    for combo in combinations_with_replacement(range(1, n + 1), k):
        weight = factorial(k) // prod(factorial(combo.count(a)) for a in set(combo))
        u = derivative(n, kind, combo)
        square = u.multiply(u).scale(weight)
        total = square if total is None else total + square
    return total


def _canonical(n_vars, radial_base, merged):
    """A TermSum from a merged {(monomial, offset): coeff} mapping: zeros
    dropped, terms sorted."""
    terms = tuple(Term(c, monomial, offset) for (monomial, offset), c in sorted(merged.items()) if c)
    return TermSum(n_vars, radial_base, terms)


def reference_build(n_vars, radial_base, entries):
    """``TermSum.build``: validate each entry and accumulate it at once."""
    if n_vars < 1:
        raise ValueError("n_vars must be >= 1")
    merged = defaultdict(Fraction)
    items = entries.items() if isinstance(entries, Mapping) else entries
    for (monomial, offset), coeff in items:
        monomial = tuple(map(index, monomial))
        if len(monomial) != n_vars or any(e < 0 for e in monomial):
            raise ValueError(f"bad monomial {monomial} for n_vars={n_vars}")
        merged[(monomial, index(offset))] += as_rational(coeff)
    return _canonical(n_vars, as_rational(radial_base), merged)


def _summed(n_vars, radial_base, sums):
    merged = defaultdict(Fraction)
    for u in sums:
        for t in u.terms:
            merged[(t.monomial, t.radial_offset)] += t.coeff
    return _canonical(n_vars, radial_base, merged)


def reference_add(a, b):
    """``a + b``."""
    if a.n_vars != b.n_vars or a.radial_base != b.radial_base:
        raise ValueError("cannot add sums with different dimension or radial base")
    return _summed(a.n_vars, a.radial_base, (a, b))


def reference_scale(u, factor):
    """``u.scale(factor)``."""
    factor = as_rational(factor)
    merged = {(t.monomial, t.radial_offset): t.coeff * factor for t in u.terms}
    return _canonical(u.n_vars, u.radial_base, merged)


def reference_multiply(a, b):
    """``a.multiply(b)``: every pair of terms, the radial bases added."""
    if a.n_vars != b.n_vars:
        raise ValueError("dimension mismatch")
    merged = defaultdict(Fraction)
    for s in a.terms:
        for t in b.terms:
            monomial = tuple(x + y for x, y in zip(s.monomial, t.monomial))
            merged[(monomial, s.radial_offset + t.radial_offset)] += s.coeff * t.coeff
    return _canonical(a.n_vars, a.radial_base + b.radial_base, merged)


def reference_differentiate(u, axis):
    """``u.differentiate(axis)`` by the rule
    d/dx_i [x^beta r^t] = beta_i x^(beta - e_i) r^t + t x^(beta + e_i) r^(t-2)."""
    if not 1 <= axis <= u.n_vars:
        raise ValueError(f"axis {axis} out of range 1..{u.n_vars}")
    a = axis - 1
    merged = defaultdict(Fraction)
    for t in u.terms:
        e = t.monomial[a]
        if e:
            down = t.monomial[:a] + (e - 1,) + t.monomial[a + 1:]
            merged[(down, t.radial_offset)] += t.coeff * e
        exponent = u.radial_base + t.radial_offset
        if exponent:
            up = t.monomial[:a] + (e + 1,) + t.monomial[a + 1:]
            merged[(up, t.radial_offset - 2)] += t.coeff * exponent
    return _canonical(u.n_vars, u.radial_base, merged)


def reference_merged_laplacian(u):
    """``u.laplacian()``: the terms of the n second partials merged once."""
    return _summed(u.n_vars, u.radial_base, (
        reference_differentiate(reference_differentiate(u, axis), axis)
        for axis in range(1, u.n_vars + 1)
    ))


def _sum_sq_pow(n, e):
    """(x_1^2 + ... + x_n^2)^e expanded: pairs (alpha, multinomial coefficient)."""
    for cuts in combinations_with_replacement(range(e + 1), n - 1):
        # Stars and bars: n - 1 cut points split e into the parts alpha.
        alpha = tuple(hi - lo for lo, hi in zip((0,) + cuts, cuts + (e,)))
        yield alpha, factorial(e) // prod(factorial(a) for a in alpha)


def _radial_monomials(u, shift):
    """u * r^(2*shift - radial_base) as a polynomial in x alone, substituting
    r^2 = sum x_i^2; shift must clear every negative power of r^2."""
    poly = defaultdict(Fraction)
    for t in u.terms:
        if t.radial_offset % 2:
            raise ValueError("odd radial offset has no polynomial form")
        for alpha, mult in _sum_sq_pow(u.n_vars, t.radial_offset // 2 + shift):
            poly[tuple(b + 2 * a for b, a in zip(t.monomial, alpha))] += t.coeff * mult
    return {beta: c for beta, c in poly.items() if c}


def _min_half_offset(u):
    return min((t.radial_offset // 2 for t in u.terms), default=0)


def reference_functions_equal(a, b):
    """Whether two TermSums are the same function on R^n minus the origin,
    by expanding both into polynomials in x."""
    if a.n_vars != b.n_vars:
        raise ValueError("dimension mismatch")
    delta = a.radial_base - b.radial_base
    if delta.denominator != 1 or delta.numerator % 2:
        return not _radial_monomials(a, -_min_half_offset(a)) and not _radial_monomials(
            b, -_min_half_offset(b))
    half = delta.numerator // 2
    shift = max(0, -min(_min_half_offset(a) + half, _min_half_offset(b)))
    return _radial_monomials(a, shift + half) == _radial_monomials(b, shift)


def reference_walk(n, kind, k, table):
    """``symdiff._walk``: the same (combo, weight, [S per point]) stream from a
    path of (terms, combo, weight, trailing multiplicity, axes left) nodes."""
    a, b = kind.radial_base.as_integer_ratio()
    base, top = table.base, table.top
    places = [base ** i for i in range(n)]
    down_factors = [e * b for e in range(base)]
    up_factors = [a - 2 * u * b for u in range(k + 1)]
    if not kind.is_power:
        up_factors[0] = 1  # d(r^s / s) = x_i r^(s-2) at s = 0
    points = len(table.scales)

    def leaf(terms):
        if not terms:
            return [0] * points
        coeffs = terms.values()
        return [sum(map(mul, coeffs, column)) for column in zip(*map(table.__getitem__, terms))]

    path = [({0: 1}, (), 1, 0, iter(range(1, n + 1)))]
    while path:
        terms, combo, weight, run, axes = path[-1]
        depth = len(combo)
        if depth == k:
            path.pop()
            yield combo, weight, leaf(terms)
            continue
        axis = next(axes, 0)
        if not axis:
            path.pop()
            continue
        count = run + 1 if combo and axis == combo[-1] else 1
        child = _step(terms, places[axis - 1], base, top, down_factors, up_factors)
        path.append((child, combo + (axis,), weight * (depth + 1) // count, count,
                     iter(range(axis, n + 1))))
