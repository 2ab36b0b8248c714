import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radnorm.constants import (
    NormKind,
    ell_closed,
    gamma_closed,
    gamma_special,
    half_identity_check,
    phi_deriv_at_zero,
)
from radnorm.exactnum import rational_pow
from radnorm.symdiff import (
    MAX_DIMENSION,
    MAX_ORDER,
    CapacityError,
    SamplePoint,
    TermSum,
    default_sample_points,
    derivative,
    differentiate,
    dimension_split_check,
    functions_equal,
    grad_norm_sq,
    grad_norm_sq_symbolic,
    is_zero_function,
    laplacian,
    laplacian_recursion_check,
    random_rational,
    rescaled_grad_norms,
    seed,
    seed_order,
    tilde_norm_sq,
    verify_constancy,
)
from reference import (
    reference_add,
    reference_build,
    reference_differentiate,
    reference_functions_equal,
    reference_grad_norm_sq_symbolic,
    reference_laplacian,
    reference_merged_laplacian,
    reference_multiply,
    reference_scale,
)

LOG = NormKind.logarithm()


def pt(*coords):
    return SamplePoint(tuple(Fraction(c) for c in coords))


# ---------------------------------------------------------------------------
# term algebra basics


def test_seed_power_is_single_radial_term():
    (u,) = seed(2, NormKind.power(3))
    assert u.radial_base == 3
    assert [(t.coeff, t.monomial, t.radial_offset) for t in u.terms] == [(1, (0, 0), 0)]
    assert seed_order(NormKind.power(3)) == 0


def test_seed_log_gives_gradient_components():
    comps = seed(2, LOG)
    assert len(comps) == 2
    assert [(t.monomial, t.radial_offset) for t in comps[0].terms] == [((1, 0), -2)]
    assert [(t.monomial, t.radial_offset) for t in comps[1].terms] == [((0, 1), -2)]
    assert seed_order(LOG) == 1


def test_seed_power_zero_is_constant():
    (u,) = seed(1, NormKind.power(0))
    assert differentiate(u, 1).is_zero()


def test_differentiate_power_seed():
    (u,) = seed(2, NormKind.power(Fraction(5, 3)))
    d = differentiate(u, 1)
    assert d == TermSum.single(2, Fraction(5, 3), (1, 0), -2, Fraction(5, 3))


def test_differentiate_log_component_hand_oracle():
    u = seed(2, LOG)[0]  # x_1 r^-2
    d1 = differentiate(u, 1)
    assert d1 == TermSum.build(
        2, 0, {((0, 0), -2): Fraction(1), ((2, 0), -4): Fraction(-2)}
    )
    d2 = differentiate(u, 2)
    assert d2 == TermSum.single(2, 0, (1, 1), -4, -2)


def test_normalization_is_idempotent_and_merges():
    entries = [
        (((1, 0), -2), Fraction(1, 2)),
        (((1, 0), -2), Fraction(1, 2)),
        (((0, 1), 0), Fraction(0)),
    ]
    u = TermSum.build(2, 1, entries)
    assert [(t.coeff, t.monomial, t.radial_offset) for t in u.terms] == [(1, (1, 0), -2)]
    again = TermSum.build(2, 1, {(t.monomial, t.radial_offset): t.coeff for t in u.terms})
    assert again == u


def test_terms_are_canonically_sorted():
    u = TermSum.build(
        2, 0, {((2, 0), -4): Fraction(1), ((0, 0), -2): Fraction(1), ((0, 0), -4): Fraction(1)}
    )
    keys = [(t.monomial, t.radial_offset) for t in u.terms]
    assert keys == sorted(keys)


def test_build_rejects_bad_monomials():
    with pytest.raises(ValueError):
        TermSum.build(2, 0, {((1,), 0): Fraction(1)})
    with pytest.raises(ValueError):
        TermSum.build(2, 0, {((-1, 0), 0): Fraction(1)})


@pytest.mark.parametrize("key", [((0.5, 0), 0), ((1.0, 0), 0), ((1, 0), -2.0)], ids=repr)
def test_build_rejects_inexact_exponents_and_offsets(key):
    # int() would truncate 0.5 to x^0 instead of refusing it.
    with pytest.raises(TypeError):
        TermSum.build(2, 0, {key: 1})


def test_mixed_partials_commute_on_random_orders():
    rng = random.Random(9)
    for kind in (NormKind.power(Fraction(-7, 2)), LOG):
        for _ in range(20):
            n = rng.randint(1, 3)
            k = rng.randint(1, 4)
            axes = [rng.randint(1, n) for _ in range(k)]
            shuffled = axes[:]
            rng.shuffle(shuffled)

            def apply(order):
                if kind.is_power:
                    u = seed(n, kind)[0]
                    rest = order
                else:
                    u = seed(n, kind)[order[-1] - 1]
                    rest = order[:-1]
                for a in rest:
                    u = differentiate(u, a)
                return u

            assert apply(axes) == apply(shuffled)
            assert derivative(n, kind, axes) == apply(axes)


def test_homogeneity_ledger():
    # every term of a k-th derivative satisfies |beta| + j = -k
    rng = random.Random(13)
    for kind in (NormKind.power(Fraction(1, 2)), NormKind.power(-3), LOG):
        for _ in range(15):
            n = rng.randint(1, 4)
            k = rng.randint(1, 5)
            axes = tuple(rng.randint(1, n) for _ in range(k))
            u = derivative(n, kind, axes)
            for t in u.terms:
                assert sum(t.monomial) + t.radial_offset == -k
                assert t.radial_offset % 2 == 0


@pytest.mark.parametrize("axes", [(1.7,), ("2",), (1, 2.0)], ids=repr)
def test_derivative_rejects_inexact_axes(axes):
    # int() would take 1.7 as axis 1 and "2" as axis 2.
    with pytest.raises(TypeError):
        derivative(2, NormKind.power(3), axes)


def test_derivative_takes_integer_axes():
    kind = NormKind.power(3)
    assert derivative(2, kind, (2,)) == TermSum.single(2, 3, (0, 1), -2, 3)
    assert derivative(2, kind, [2, 1]) == derivative(2, kind, (1, 2)) == TermSum.single(2, 3, (1, 1), -4, 3)


def test_derivative_validates_axes():
    with pytest.raises(ValueError):
        derivative(2, LOG, (3,))
    with pytest.raises(ValueError):
        derivative(2, LOG, ())
    with pytest.raises(ValueError):
        differentiate(seed(2, LOG)[0], 0)


# ---------------------------------------------------------------------------
# laplacian


def test_laplacian_radial_power_formula():
    rng = random.Random(4)
    for n in range(1, 6):
        for _ in range(20):
            nu = Fraction(rng.randint(-9, 9), rng.randint(1, 7))
            u = TermSum.single(n, nu, (0,) * n, 0, 1)
            expected = TermSum.single(n, nu, (0,) * n, -2, nu * (nu + n - 2))
            assert functions_equal(laplacian(u), expected)


def test_laplacian_annihilates_fundamental_solution():
    for n in range(1, 6):
        u = TermSum.single(n, Fraction(2 - n), (0,) * n, 0, 1)
        assert is_zero_function(laplacian(u))


def test_log_gradient_divergence_vanishes_in_dimension_two():
    comps = seed(2, LOG)
    div = differentiate(comps[0], 1) + differentiate(comps[1], 2)
    assert is_zero_function(div)
    # ... but not termwise: the cancellation needs r^2 = x_1^2 + x_2^2
    assert not div.is_zero()


def test_laplacian_recursion_reproduces_special_constants():
    for n in range(2, 5):
        for k in range(1, 5):
            assert laplacian_recursion_check(n, k)


# ---------------------------------------------------------------------------
# norm evaluation


def test_grad_norm_known_values():
    assert grad_norm_sq(3, NormKind.power(2), 2, pt(1, 2, 2)) == 12
    assert grad_norm_sq(2, LOG, 1, pt(3, 4)) == Fraction(1, 25)
    assert grad_norm_sq(2, LOG, 2, pt(1, 1)) == Fraction(1, 2)
    assert grad_norm_sq(2, LOG, 2, pt(1, 1), rescaled=True) == 2


def test_grad_norm_order_zero_power():
    assert grad_norm_sq(2, NormKind.power(3), 0, pt(1, 2), rescaled=True) == 1
    assert grad_norm_sq(2, NormKind.power(3), 0, pt(1, 2)) == 125  # (r^2)^3 = 5^3


def test_grad_norm_rejects_log_order_zero():
    with pytest.raises(ValueError):
        grad_norm_sq(2, LOG, 0, pt(1, 1))


def test_grad_norm_raw_fractional_exponent():
    kind = NormKind.power(Fraction(1, 2))
    # r^2 = 25 is a perfect square, so the raw value is rational
    value = grad_norm_sq(2, kind, 1, pt(3, 4))
    gamma = gamma_closed(2, Fraction(1, 2), 1)
    assert value == gamma * rational_pow(Fraction(25), Fraction(1, 2) - 1)
    # r^2 = 2 is not, so the raw value is irrational and must raise
    with pytest.raises(ValueError):
        grad_norm_sq(2, kind, 1, pt(1, 1))
    # the rescaled value stays exact everywhere
    assert grad_norm_sq(2, kind, 1, pt(1, 1), rescaled=True) == gamma


def test_weighted_and_unweighted_enumerations_agree():
    rng = random.Random(17)
    kinds = [NormKind.power(3), NormKind.power(Fraction(-1, 2)), LOG]
    for n in range(1, 4):
        points = []
        while len(points) < 5:
            coords = tuple(random_rational(rng) for _ in range(n))
            if any(coords):
                points.append(SamplePoint(coords))
        for kind in kinds:
            for k in range(1, 5):
                for point in points:
                    assert grad_norm_sq(n, kind, k, point, weighted=True, rescaled=True) == \
                        grad_norm_sq(n, kind, k, point, weighted=False, rescaled=True)


def test_oracle_matches_closed_forms():
    points = {n: default_sample_points(n, seed=23) for n in range(1, 4)}
    for n in range(1, 4):
        for k in range(1, 5):
            for s in (Fraction(-2), Fraction(1), Fraction(3)):
                expected = gamma_closed(n, s, k)
                for p in points[n]:
                    assert grad_norm_sq(n, NormKind.power(s), k, p, rescaled=True) == expected
            expected = ell_closed(n, k)
            for p in points[n]:
                assert grad_norm_sq(n, LOG, k, p, rescaled=True) == expected


def test_rotation_invariance_spot_check():
    for kind, expected in ((NormKind.power(3), gamma_closed(2, 3, 2)), (LOG, ell_closed(2, 2))):
        values = {
            grad_norm_sq(2, kind, 2, p, rescaled=True)
            for p in (pt(1, 0), pt(3, 4), pt(5, 12))
        }
        assert values == {expected}


def test_grad_norm_symbolic_matches_pointwise():
    kind = NormKind.power(-2)
    sym = grad_norm_sq_symbolic(3, kind, 2)
    assert sym.radial_base == -4  # twice the seed exponent
    for p in (pt(1, 0, 0), pt(1, 2, 2)):
        assert p.r_sq ** 2 * sym.evaluate_reduced(p) == grad_norm_sq(
            3, kind, 2, p, rescaled=True
        )


# ---------------------------------------------------------------------------
# tilde norm


def test_tilde_norm_known_values():
    assert tilde_norm_sq(2, LOG, 2, pt(1, 0), rescaled=True) == 2
    assert tilde_norm_sq(2, LOG, 2, pt(1, 1), rescaled=True) == 1


def test_tilde_collapses_to_grad_in_dimension_one():
    for kind in (NormKind.power(Fraction(7, 3)), LOG):
        for k in range(1, 5):
            for p in (pt(2), pt(Fraction(-3, 2))):
                assert tilde_norm_sq(1, kind, k, p, rescaled=True) == grad_norm_sq(
                    1, kind, k, p, rescaled=True
                )


def _pair_sum(point):
    # sum over i1 <= i2 of x_{i1}^2 x_{i2}^2
    coords = point.coords
    return sum(
        coords[i] ** 2 * coords[j] ** 2
        for i in range(len(coords))
        for j in range(i, len(coords))
    )


def test_tilde_order_two_displayed_formulas():
    rng = random.Random(31)
    for n in (2, 3):
        for _ in range(10):
            coords = tuple(random_rational(rng) for _ in range(n))
            if not any(coords):
                continue
            p = SamplePoint(coords)
            ratio = _pair_sum(p) / p.r_sq ** 2
            assert tilde_norm_sq(n, LOG, 2, p, rescaled=True) == n - 4 + 4 * ratio
            for s in (Fraction(-1), Fraction(3), Fraction(5)):
                expected = s ** 2 * (n + 2 * s - 4 + (s - 2) ** 2 * ratio)
                assert tilde_norm_sq(n, NormKind.power(s), 2, p, rescaled=True) == expected


def test_tilde_order_zero_follows_the_constant_query():
    power = NormKind.power(1)
    for p in (pt(1, 1), pt(3, Fraction(-1, 2))):
        assert tilde_norm_sq(2, power, 0, p, rescaled=True) == 1
        assert tilde_norm_sq(2, power, 0, p) == grad_norm_sq(2, power, 0, p) == p.r_sq
    with pytest.raises(ValueError, match="^logarithm constants are defined for order >= 1 only$"):
        tilde_norm_sq(2, LOG, 0, pt(1, 1))


# ---------------------------------------------------------------------------
# verification pipeline


def test_verify_constancy_log_example():
    report = verify_constancy(3, LOG, 3, [pt(1, 0, 0), pt(1, 2, 2), pt(3, 4, 12)])
    assert report.exact_match
    assert {v for _, v in report.point_values} == {28}
    assert report.method_values == {"closed": 28, "recursive": 28}


def test_verify_constancy_degenerate_power():
    report = verify_constancy(2, NormKind.power(0), 1, [pt(1, 0), pt(1, 2)])
    assert report.exact_match
    assert {v for _, v in report.point_values} == {0}


def test_verify_constancy_special_power():
    report = verify_constancy(4, NormKind.power(-2), 2, [pt(1, 0, 0, 0), pt(1, 1, 1, 1)])
    assert report.exact_match
    assert {v for _, v in report.point_values} == {48}
    assert report.method_values["closed"] == gamma_special(4, 2)


def test_verify_constancy_preconditions():
    with pytest.raises(ValueError):
        verify_constancy(2, LOG, 2, [])
    with pytest.raises(ValueError):
        verify_constancy(2, LOG, 2, [pt(1, 1)])
    with pytest.raises(ValueError):
        verify_constancy(2, LOG, 2, [pt(1, 1), pt(2, 2), pt(-3, -3)])  # one ray
    with pytest.raises(ValueError):
        verify_constancy(2, LOG, 0, [pt(1, 0), pt(1, 1)])
    with pytest.raises(ValueError, match="point dimension mismatch"):
        verify_constancy(2, LOG, 2, [pt(1, 1, 1), pt(2, 2)])
    with pytest.raises(ValueError, match="point dimension mismatch"):
        verify_constancy(2, LOG, 2, [pt(1, 0), pt(1, 1), pt(3)])
    # dimension 1: proportionality is unavoidable and not required
    assert verify_constancy(1, LOG, 2, [pt(1), pt(2)]).exact_match


def test_the_proportionality_rule_compares_each_point_with_the_first(monkeypatch):
    from radnorm import symdiff

    # one point off the ray is enough, wherever it stands
    for points in ([pt(1, 0), pt(1, 2), pt(2, 4)], [pt(1, 2), pt(1, 0), pt(2, 4)], [pt(1, 2), pt(2, 4), pt(1, 0)]):
        assert verify_constancy(2, LOG, 2, points).exact_match
    calls = []
    real = symdiff._proportional

    def counted(p, q):
        calls.append((p, q))
        if len(calls) > 2_000:
            raise AssertionError("more comparisons than points")
        return real(p, q)

    monkeypatch.setattr(symdiff, "_proportional", counted)
    ray = [pt(i, 2 * i) for i in range(1, 2_001)]
    with pytest.raises(ValueError, match="^sample points must not all be proportional$"):
        verify_constancy(2, LOG, 1, ray)
    assert len(calls) == 1_999 and {p for p, _ in calls} == {ray[0]}


def test_power_order_zero_is_the_constant_one():
    for s in (3, Fraction(-1, 2)):
        kind = NormKind.power(s)
        for points in ([pt(2)], [pt(1, 0), pt(1, 2)], [pt(1, 0, 0), pt(1, 2, 2)]):
            report = verify_constancy(len(points[0].coords), kind, 0, points)
            assert report.verdict == "exact-match"
            assert report.method_values == {"closed": 1, "recursive": 1}
            assert {v for _, v in report.point_values} == {1}
        assert dimension_split_check(2, kind, 0, pt(1, 2))
        assert dimension_split_check(3, kind, 0, pt(1, 2, 2))


def test_dimension_split_check_examples():
    assert dimension_split_check(2, NormKind.power(3), 2, pt(1, 2))
    assert dimension_split_check(3, LOG, 2, pt(1, 1, 1))
    assert dimension_split_check(2, LOG, 1, pt(2, 5))


def test_dimension_split_grid():
    rng = random.Random(41)
    kinds = [NormKind.power(3), NormKind.power(Fraction(-1, 2)), LOG]
    for n in (2, 3):
        for kind in kinds:
            for k in range(1, 4):
                coords = tuple(random_rational(rng) for _ in range(n))
                if not any(coords):
                    coords = tuple(Fraction(1) for _ in range(n))
                assert dimension_split_check(n, kind, k, SamplePoint(coords))


def test_dimension_split_rejects_dimension_one():
    with pytest.raises(ValueError):
        dimension_split_check(1, LOG, 2, pt(1))


# ---------------------------------------------------------------------------
# sample points, caps, function equality


def test_sample_point_rejects_origin_and_empty():
    with pytest.raises(ValueError):
        SamplePoint((Fraction(0), Fraction(0)))
    with pytest.raises(ValueError):
        SamplePoint(())
    p = pt(3, 4)
    assert p.r_sq == 25
    assert p.text() == "3,4"
    assert str(p) == "(3,4)"


def test_default_sample_points_deterministic():
    a = default_sample_points(3, seed=5)
    b = default_sample_points(3, seed=5)
    assert a == b
    assert a[0] == pt(1, 0, 0)
    assert a[1] == pt(1, 1, 1)
    assert a[2] == pt(1, 2, 3)
    assert a[3] == pt(3, 4, 0)
    assert len(a) == 6
    assert len({p.coords for p in a}) == len(a)
    assert default_sample_points(3, seed=6) != a
    assert len(default_sample_points(1)) == 3
    with pytest.raises(TypeError):  # None would seed from OS entropy
        default_sample_points(3, seed=None)


def test_capacity_caps():
    with pytest.raises(CapacityError):
        grad_norm_sq(MAX_DIMENSION + 1, LOG, 1, pt(*([1] * (MAX_DIMENSION + 1))))
    with pytest.raises(CapacityError):
        grad_norm_sq(2, LOG, MAX_ORDER + 1, pt(1, 1))
    with pytest.raises(CapacityError):
        laplacian_recursion_check(MAX_DIMENSION + 1, 1)


def test_functions_equal_handles_base_shifts():
    # x_1^2 r^-2 + x_2^2 r^-2 == 1 in dimension 2, with bases differing by 2
    lhs = TermSum.build(2, 2, {((2, 0), -4): Fraction(1), ((0, 2), -4): Fraction(1)})
    rhs = TermSum.single(2, 0, (0, 0), 0, 1)
    assert functions_equal(lhs, rhs)
    assert not functions_equal(lhs, rhs.scale(2))
    # 1 vs r^(2e) at n = 4: unequal, however far apart the radial offsets are
    one = TermSum.single(4, 0, (0,) * 4, 0, 1)
    for e in (20, 40, 60):
        assert not functions_equal(one, TermSum.single(4, 0, (0,) * 4, 2 * e, 1))


def test_functions_equal_incompatible_bases():
    a = TermSum.single(1, Fraction(1, 2), (0,), 0, 1)
    b = TermSum.single(1, Fraction(3, 2), (0,), 0, 1)
    assert not functions_equal(a, b)  # r^(1/2) != r^(3/2)
    assert functions_equal(a.scale(0), b.scale(0))  # both zero
    with pytest.raises(ValueError):
        functions_equal(a, TermSum.single(2, Fraction(1, 2), (0, 0), 0, 1))


# Terms c x^beta r^(base + j) with beta_i <= 4, even j in -6..4, c = p/q with |p|, q <= 3.
_ENTRIES = {n: st.dictionaries(
    st.tuples(st.tuples(*[st.integers(0, 4)] * n), st.sampled_from(range(-6, 5, 2))),
    st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3)), min_size=1, max_size=4)
    for n in range(1, 5)}


def _times_one(t, n):
    # t * (sum x_i^2) r^-2: the same function, written with n terms
    return {(t.monomial[:i] + (t.monomial[i] + 2,) + t.monomial[i + 1:], t.radial_offset - 2): t.coeff
            for i in range(n)}


@st.composite
def _pairs(draw):
    """(a, b, whether b is a by construction)."""
    n = draw(st.integers(1, 4))
    base = draw(st.builds(Fraction, st.integers(-8, 8), st.sampled_from([1, 2])))
    a = TermSum.build(n, base, draw(_ENTRIES[n]))
    shape = draw(st.sampled_from(["random", "rewrite", "shift", "odd shift"]))
    if shape == "random":
        return a, TermSum.build(n, base, draw(_ENTRIES[n])), False
    if shape == "odd shift":
        shift = draw(st.sampled_from([1, -1, Fraction(1, 2)]))
        return a, TermSum.build(n, base + shift, draw(_ENTRIES[n])), False
    if shape == "rewrite":
        entries = []
        for t in a.terms:
            term = {(t.monomial, t.radial_offset): t.coeff}
            entries += (_times_one(t, n) if draw(st.booleans()) else term).items()
        b = TermSum.build(n, base, entries)
    else:
        h = draw(st.sampled_from([-1, 1]))
        b = TermSum.build(n, base + 2 * h, {(t.monomial, t.radial_offset - 2 * h): t.coeff for t in a.terms})
    if draw(st.booleans()):
        return a, b, True
    return a, b + TermSum.build(n, b.radial_base, draw(_ENTRIES[n])), False


@settings(max_examples=200, deadline=None)
@given(_pairs())
def test_functions_equal_agrees_with_the_expansion_reference(pair):
    a, b, same = pair
    equal = functions_equal(a, b)
    assert equal == reference_functions_equal(a, b)
    assert equal or not same
    assert is_zero_function(a) == reference_functions_equal(a, a.scale(0))
    if a.radial_base == b.radial_base:
        assert is_zero_function(a + b.scale(-1)) == equal


def test_vanishing_derivatives_of_even_powers():
    # derivatives of the polynomial r^(2m) of order > 2m vanish termwise
    for m in range(3):
        for n in range(1, 4):
            kind = NormKind.power(2 * m)
            for k in range(2 * m + 1, 2 * m + 4):
                axes = tuple((i % n) + 1 for i in range(k))
                assert derivative(n, kind, axes).is_zero()


@pytest.mark.parametrize("kind", [NormKind.power(Fraction(1, 2)), NormKind.power(-1), LOG],
                         ids=str)
def test_one_pass_sums_equal_the_repeated_add_fold(kind):
    for n in range(1, 4):
        for k in range(seed_order(kind), 4):
            norm_sq = grad_norm_sq_symbolic(n, kind, k)
            assert norm_sq == reference_grad_norm_sq_symbolic(n, kind, k)
            assert laplacian(norm_sq) == reference_laplacian(norm_sq)
            u = derivative(n, kind, (1,) * k)
            assert laplacian(u) == reference_laplacian(u)


# Possibly repeated, zero or cancelling parts c x^beta r^(base + j) with
# beta_i <= 3, even j in -6..4 and c = p/q with |p|, q <= 3.
_PARTS = {n: st.lists(st.tuples(
    st.tuples(st.tuples(*[st.integers(0, 3)] * n), st.sampled_from(range(-6, 5, 2))),
    st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))), max_size=6)
    for n in range(1, 5)}


@st.composite
def _operands(draw):
    """(n, base, parts of a, parts of b, base of c, parts of c, factor, axis)."""
    n = draw(st.integers(1, 4))
    bases = st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 2, 3]))
    base, c_base = draw(bases), draw(bases)
    a, b, c = (draw(_PARTS[n]) for _ in range(3))
    if draw(st.booleans()):
        b = b + [(key, -coeff) for key, coeff in a]  # a + b cancels a's parts
    factor = draw(st.sampled_from([0, 1, -1, Fraction(-2, 3), 5]))
    return n, base, a, b, c_base, c, factor, draw(st.integers(1, n))


def _assert_identical(u, v):
    assert u == v
    assert type(u.radial_base) is Fraction
    assert all(type(t.coeff) is Fraction and t.coeff for t in u.terms)
    assert all(type(e) is int for t in u.terms for e in (*t.monomial, t.radial_offset))


@settings(max_examples=300, deadline=None)
@given(_operands())
def test_merged_operations_equal_the_accumulating_reference(operands):
    n, base, a_parts, b_parts, c_base, c_parts, factor, axis = operands
    a, b, c = (TermSum.build(n, r, parts) for r, parts in ((base, a_parts), (base, b_parts), (c_base, c_parts)))
    _assert_identical(a, reference_build(n, base, a_parts))
    _assert_identical(TermSum.build(n, base, dict(a_parts)), reference_build(n, base, dict(a_parts)))
    _assert_identical(a + b, reference_add(a, b))
    _assert_identical(a.scale(factor), reference_scale(a, factor))
    _assert_identical(a.multiply(c), reference_multiply(a, c))
    _assert_identical(a.differentiate(axis), reference_differentiate(a, axis))
    _assert_identical(a.laplacian(), reference_merged_laplacian(a))


_P = pt(1, 2)


@pytest.mark.parametrize("call, message", [
    (lambda: half_identity_check(Fraction(1, 2), -1), "m must be >= 0"),
    (lambda: phi_deriv_at_zero(-1, 0), "m and k must be >= 0"),
    (lambda: TermSum.build(0, 0, {}), "n_vars must be >= 1"),
    (lambda: TermSum.single(2, 0, (1, 0), 0, 1) + TermSum.single(3, 0, (1, 0, 0), 0, 1),
     "cannot add sums with different dimension or radial base"),
    (lambda: TermSum.single(2, 0, (1, 0), 0, 1) + TermSum.single(2, 1, (1, 0), 0, 1),
     "cannot add sums with different dimension or radial base"),
    (lambda: TermSum.single(2, 0, (1, 0), 0, 1).multiply(TermSum.single(1, 0, (1,), 0, 1)),
     "dimension mismatch"),
    (lambda: TermSum.single(3, 0, (1, 0, 0), 0, 1).evaluate_reduced(_P), "point dimension mismatch"),
    (lambda: TermSum.single(2, 0, (1, 0), -1, 1).evaluate_reduced(_P),
     "odd radial offset cannot be evaluated exactly"),
    (lambda: rescaled_grad_norms(3, LOG, 2, [_P]), "point dimension mismatch"),
    (lambda: default_sample_points(0), "dimension must be >= 1"),
    (lambda: is_zero_function(TermSum.single(2, 0, (1, 0), -1, 1)), "odd radial offset has no polynomial form"),
    (lambda: functions_equal(TermSum.single(2, 0, (1, 0), -1, 1), TermSum.single(2, 2, (0, 0), 0, 1)),
     "odd radial offset has no polynomial form"),
], ids=["half_identity_check", "phi_deriv_at_zero", "TermSum.build", "TermSum.add-dimension",
        "TermSum.add-base", "TermSum.multiply", "evaluate_reduced-dimension", "evaluate_reduced-odd",
        "rescaled_grad_norms", "default_sample_points", "is_zero_function-odd", "functions_equal-odd"])
def test_validation_raises(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()
