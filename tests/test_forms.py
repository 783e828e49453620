"""Perazzo forms: block ranks, extremal h-vectors, classification, Waring rank."""

import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import perazzo

from perazzo.forms import (
    PerazzoCase,
    PerazzoForm,
    algebraic_relation,
    blocks,
    classify,
    classify_polynomial,
    h_via_ranks,
    hankel_block,
    intersection_divisor,
    is_cone,
    max_hvector,
    min_hvector,
    multiplicity_pattern,
    osculating_family,
    random_perazzo_form,
    secant_membership,
    tangent_point_family,
    three_points_family,
    waring_rank,
)
from perazzo.binary import normalize_binary, rational_roots
from perazzo.inverse_systems import h_vector, is_osequence
from perazzo.linalg import RationalMatrix
from perazzo.parsing import parse_poly
from perazzo.poly import (
    HomogeneousPoly,
    VariableSet,
    apply_monomial_op,
    binary_variables,
    coeff_vector,
    monomials,
    random_binary_form,
)

from conftest import change_uv
from oracles import (
    sympy_border_rank,
    sympy_cubic_annihilator_dims,
    sympy_intersection_divisor,
    sympy_waring_rank,
)


# -- construction and conversion ----------------------------------------------


def test_constructor_accepts_valid_form(uv, u, v):
    pf = PerazzoForm(u**4, u**3 * v, v**4)
    assert pf.degree == 5
    assert pf.vars == uv
    assert pf.g.is_zero()
    assert len(pf.a) == 5
    assert len(pf.gcoef) == 6


def test_constructor_rejections(uv, u, v):
    with pytest.raises(ValueError):
        PerazzoForm(u**4, u**3 * v, u**4 + u**3 * v)  # dependent
    with pytest.raises(ValueError):
        PerazzoForm(u**4, u**3 * v, v**3)  # degree mismatch
    with pytest.raises(ValueError):
        PerazzoForm(u, v, u + v)  # d = 2 too small
    with pytest.raises(ValueError):
        PerazzoForm(u**4, u**3 * v, v**4, g=v**4)  # g degree
    other = binary_variables(("s", "t"))
    s = HomogeneousPoly.variable(other, 0)
    with pytest.raises(ValueError):
        PerazzoForm(u**4, u**3 * v, s**4)
    wide = VariableSet(("x", "y", "z"))
    p = HomogeneousPoly.monomial(wide, (4, 0, 0))
    with pytest.raises(ValueError):
        PerazzoForm(p, p, p)


def test_perazzo_form_is_immutable(uv, u, v):
    pf = PerazzoForm(u**4, u**3 * v, v**4)
    with pytest.raises(AttributeError):
        pf.p0 = v**4


def test_polynomial_round_trip(xring):
    rng = random.Random(501)
    for d in (4, 5, 6):
        for _ in range(3):
            pf = random_perazzo_form(d, seed=rng.randint(0, 10**6))
            f = pf.to_polynomial(xring)
            assert f.degree == d
            back = PerazzoForm.from_polynomial(f)
            assert back == pf


def test_from_polynomial_rejects_bad_shapes(xring, uv):
    f = parse_poly("x0^2*u^3 + x1*u^4 + x2*v^4", xring)
    with pytest.raises(ValueError, match="x-degree"):
        PerazzoForm.from_polynomial(f)
    plain = VariableSet(("x0", "x1", "x2", "u", "v"))
    g = parse_poly("u^4*x0 + u^3*v*x1 + v^4*x2", plain)
    with pytest.raises(ValueError, match="block"):
        PerazzoForm.from_polynomial(g)
    pf = random_perazzo_form(4)
    with pytest.raises(ValueError, match="block"):
        pf.to_polynomial(plain)


# -- Hankel blocks and the rank identity --------------------------------------


def test_hankel_block_entries():
    coeffs = [Fraction(k) for k in (1, 2, 3, 4, 5)]
    m = hankel_block(coeffs, 3)
    assert m.rows == [
        [Fraction(1), Fraction(2), Fraction(3)],
        [Fraction(2), Fraction(3), Fraction(4)],
        [Fraction(3), Fraction(4), Fraction(5)],
    ]
    thin = hankel_block(coeffs, 1)
    assert thin.shape == (5, 1)
    with pytest.raises(ValueError):
        hankel_block(coeffs, 6)
    with pytest.raises(ValueError):
        hankel_block(coeffs, 0)


def test_blocks_shapes_and_frozen_rank(uv, u, v):
    pf = PerazzoForm(u**4, u**3 * v, v**4)
    bl = blocks(pf, 2)
    d = pf.degree
    assert bl.p0_hankel.shape == (d - 2 + 1, 2)
    assert bl.joined.shape == (d - 1, 6)
    assert bl.stacked.shape == (3 * (d - 3 + 1), 3)
    assert bl.g_hankel.shape == (d + 1 - 3 + 1, 3)
    assert bl.joined.rank() == 3
    with pytest.raises(ValueError):
        blocks(pf, 1)
    with pytest.raises(ValueError):
        blocks(pf, (d + 1) // 2 + 1)


def test_joined_at_k_is_transpose_of_stacked_at_d_minus_k():
    rng = random.Random(502)
    for d in (5, 6, 7, 8):
        pf = random_perazzo_form(d, seed=rng.randint(0, 10**6))
        for k in range(2, (d + 1) // 2 + 1):
            joined = blocks(pf, k).joined
            stacked_mirror = (
                hankel_block(pf.a, d - k + 1)
                .vstack(hankel_block(pf.b, d - k + 1))
                .vstack(hankel_block(pf.c, d - k + 1))
            )
            assert joined.transpose() == stacked_mirror
            assert joined.rank() == stacked_mirror.rank()


# -- h-vector via block ranks --------------------------------------------------


def test_h_via_ranks_degree_three_short_circuit(uv, u, v):
    pf = PerazzoForm(u**2, u * v, v**2)
    hr = h_via_ranks(pf)
    assert hr.lower == hr.upper == hr.exact == (1, 5, 5, 1)


def test_h_via_ranks_exact_without_g_matches_h_vector():
    rng = random.Random(503)
    for d in (4, 5, 6, 7):
        for _ in range(3):
            pf = random_perazzo_form(d, seed=rng.randint(0, 10**6), with_g=False)
            hr = h_via_ranks(pf)
            assert hr.exact is not None
            assert hr.exact == hr.lower == hr.upper
            assert hr.exact == h_vector(pf.to_polynomial())


def test_h_via_ranks_sandwich_with_g():
    rng = random.Random(504)
    for d in (4, 5, 6):
        for _ in range(3):
            pf = random_perazzo_form(d, seed=rng.randint(0, 10**6), with_g=True)
            hr = h_via_ranks(pf)
            h = h_vector(pf.to_polynomial())
            for lo, mid, up in zip(hr.lower, h, hr.upper):
                assert lo <= mid <= up
            if hr.exact is not None:
                assert hr.exact == h


def test_h_via_ranks_strict_gap_example(uv, u, v):
    pf = PerazzoForm(u**9, u**8 * v, v**9, g=u**5 * v**5)
    hr = h_via_ranks(pf)
    assert hr.lower == (1, 5, 6, 6, 6, 6, 6, 6, 6, 5, 1)
    assert hr.upper == (1, 5, 6, 7, 8, 9, 8, 7, 6, 5, 1)
    assert hr.exact is None
    h = h_vector(pf.to_polynomial())
    assert h == (1, 5, 6, 7, 8, 8, 8, 7, 6, 5, 1)
    # Strictly inside both bounds in the middle degrees.
    assert any(lo < mid for lo, mid in zip(hr.lower, h))
    assert any(mid < up for mid, up in zip(h, hr.upper))


# -- extremal h-vectors ---------------------------------------------------------


def test_extremal_vectors_frozen():
    assert max_hvector(7) == (1, 5, 9, 9, 9, 9, 5, 1)
    assert max_hvector(8) == (1, 5, 9, 10, 10, 10, 9, 5, 1)
    assert max_hvector(9) == (1, 5, 9, 11, 11, 11, 11, 9, 5, 1)
    assert max_hvector(10) == (1, 5, 9, 12, 12, 12, 12, 12, 9, 5, 1)
    assert min_hvector(7) == (1, 5, 6, 6, 6, 6, 5, 1)
    assert min_hvector(8) == (1, 5, 6, 6, 6, 6, 6, 5, 1)
    assert max_hvector(4) == min_hvector(4) == (1, 5, 6, 5, 1)
    assert max_hvector(5) == (1, 5, 7, 7, 5, 1)
    with pytest.raises(ValueError):
        max_hvector(3)
    with pytest.raises(ValueError):
        min_hvector(3)


def test_extremal_vectors_properties():
    for d in range(4, 16):
        mx = tuple(max_hvector(d))
        mn = tuple(min_hvector(d))
        assert len(mx) == len(mn) == d + 1
        assert mx == mx[::-1] and mn == mn[::-1]
        assert is_osequence(mx) and is_osequence(mn)
        assert all(a <= b for a, b in zip(mn, mx))
        assert mx[0] == mn[0] == 1 and mx[1] == mn[1] == 5
        # Plateau of the maximum is the four-case value d + 2.
        if d >= 7:
            assert max(mx) == d + 2


def test_families_attain_the_minimum():
    for d in (5, 6, 7, 8):
        for fam in (
            osculating_family(d),
            tangent_point_family(d),
            three_points_family(d, 2, 3),
        ):
            hr = h_via_ranks(fam)
            assert hr.exact == min_hvector(d)


def test_random_forms_attain_the_maximum():
    hits = 0
    for seed in range(8):
        pf = random_perazzo_form(6, seed=seed)
        if h_vector(pf.to_polynomial()) == max_hvector(6):
            hits += 1
    assert hits >= 6  # random forms are generically extremal


# -- Waring rank and secant membership ------------------------------------------


def test_waring_rank_closed_forms(uv, u, v):
    for e in (3, 4, 5, 6):
        pure = waring_rank(u**e)
        assert (pure.rank, pure.border_rank) == (1, 1)
        two = waring_rank(u**e + v**e)
        assert (two.rank, two.border_rank) == (2, 2)
    # Monomials u^a v^b with a >= b >= 1: rank a+1, border rank b+1.
    for a, b in ((2, 1), (3, 1), (2, 2), (4, 1), (3, 2), (3, 3)):
        res = waring_rank(u**a * v**b)
        assert res.rank == a + 1
        assert res.border_rank == b + 1


def test_waring_rank_matches_sympy_oracle(uv):
    rng = random.Random(505)
    checked = 0
    while checked < 10:
        e = rng.randint(3, 6)
        p = random_binary_form(e, bound=6, seed=rng.randint(0, 10**6), vars=uv)
        if p.is_zero() or p.degree < 1:
            continue
        res = waring_rank(p)
        coeffs = coeff_vector(p, descale=False)
        assert res.rank == sympy_waring_rank(coeffs)
        assert res.border_rank == sympy_border_rank(coeffs)
        checked += 1


def test_waring_witness_is_a_decomposition(uv, u, v):
    for p in (u**5, u**4 + v**4, u**2 * v, u**3 * v, u**4 * v, u**5 + v**5):
        res = waring_rank(p)
        witness = res.decomposition_witness
        assert witness is not None
        assert len(witness) == res.rank
        rebuilt = HomogeneousPoly.zero(p.vars, p.degree)
        seen = set()
        for form, lam in witness:
            assert lam != 0
            assert form.degree == 1
            key = form.render()
            assert key not in seen
            seen.add(key)
            rebuilt = rebuilt + (form ** p.degree).scale(lam)
        assert rebuilt == p


def test_waring_witness_absent_for_balanced_square(uv, u, v):
    # u^2 v^2 has rank 3 but no decomposition with rational points.
    res = waring_rank(u**2 * v**2)
    assert (res.rank, res.border_rank) == (3, 3)
    assert res.decomposition_witness is None


def test_waring_rank_bounds_and_border(uv):
    rng = random.Random(506)
    for _ in range(12):
        e = rng.randint(2, 6)
        p = random_binary_form(e, bound=5, seed=rng.randint(0, 10**6), vars=uv)
        if p.is_zero():
            continue
        res = waring_rank(p)
        assert 1 <= res.border_rank <= res.rank <= e
        assert (res.rank == 1) == (res.border_rank == 1)


def test_waring_rank_argument_validation(uv):
    wide = VariableSet(("x", "y", "z"))
    with pytest.raises(ValueError):
        waring_rank(HomogeneousPoly.monomial(wide, (2, 0, 0)))
    with pytest.raises(ValueError):
        waring_rank(HomogeneousPoly.zero(binary_variables(), 3))


def test_secant_membership_frozen(uv, u, v):
    assert secant_membership(u**3 * v, 2)
    assert not secant_membership(u**3 * v, 1)
    assert secant_membership(u**2 * v**2, 3)
    assert not secant_membership(u**2 * v**2, 2)
    assert secant_membership(u**6, 1)
    with pytest.raises(ValueError):
        secant_membership(u**3 * v, 0)


def test_secant_first_membership_is_border_rank(uv):
    rng = random.Random(507)
    for _ in range(10):
        e = rng.randint(2, 6)
        p = random_binary_form(e, bound=5, seed=rng.randint(0, 10**6), vars=uv)
        if p.is_zero():
            continue
        first = next(r for r in range(1, e + 1) if secant_membership(p, r))
        assert first == waring_rank(p).border_rank


# -- intersection divisor and classification ------------------------------------


def test_intersection_divisor_frozen_families():
    for d in (5, 6, 7):
        assert intersection_divisor(osculating_family(d)).render() == "t^3"
        assert intersection_divisor(tangent_point_family(d)).render() == "s*t^2"
        three = intersection_divisor(three_points_family(d, 2, 3))
        assert three.render() == "3*s^2*t - 2*s*t^2"
    assert tuple(intersection_divisor(osculating_family(5)).vars.names) == ("s", "t")


def test_intersection_divisor_low_degree_for_generic_plane():
    # A random plane misses the power curve: divisor degree 0.
    pf = random_perazzo_form(7, seed=11)
    divisor = intersection_divisor(pf)
    assert divisor.degree == 0
    assert multiplicity_pattern(divisor) == ()


def test_intersection_divisor_invariant_under_span_changes(uv):
    pf = tangent_point_family(7)
    mixed = PerazzoForm(
        pf.p0 + pf.p1, pf.p1, pf.p2 + pf.p0.scale(Fraction(1, 2)), pf.g
    )
    assert intersection_divisor(mixed) == intersection_divisor(pf)


def test_classification_invariant_under_uv_changes():
    rng = random.Random(508)
    cases = {
        PerazzoCase.OSCULATING: osculating_family(6),
        PerazzoCase.TANGENT_PLUS_POINT: tangent_point_family(6),
        PerazzoCase.THREE_POINTS: three_points_family(6, 2, 3),
    }
    for expected_case, pf in cases.items():
        base_pattern = classify(pf).divisor_pattern
        for _ in range(4):
            while True:
                m = (
                    (rng.randint(-3, 3), rng.randint(-3, 3)),
                    (rng.randint(-3, 3), rng.randint(-3, 3)),
                )
                if m[0][0] * m[1][1] - m[0][1] * m[1][0] != 0:
                    break
            moved = classify(change_uv(pf, m))
            assert moved.case is expected_case
            assert moved.divisor_pattern == base_pattern
            assert moved.g_compatible


def test_multiplicity_pattern_table():
    st = binary_variables(("s", "t"))
    s = HomogeneousPoly.variable(st, 0)
    t = HomogeneousPoly.variable(st, 1)
    assert multiplicity_pattern((s - t) * (s + t) * (s - t.scale(2))) == (1, 1, 1)
    assert multiplicity_pattern((s - t) * (s - t) * (s + t)) == (2, 1)
    assert multiplicity_pattern((s - t) ** 3) == (3,)
    assert multiplicity_pattern(s * s + t * t) == (1, 1)
    assert multiplicity_pattern((s + t) * (s + t)) == (2,)
    assert multiplicity_pattern(s) == (1,)
    assert multiplicity_pattern(HomogeneousPoly(st, 0, {(0, 0): Fraction(2)})) == ()
    with pytest.raises(ValueError):
        multiplicity_pattern(HomogeneousPoly.zero(st, 2))
    with pytest.raises(ValueError):
        multiplicity_pattern((s + t) ** 4)


def test_classify_families():
    for d in (5, 6, 7):
        osc = classify(osculating_family(d, g_coeffs=(1, -2, 3)))
        assert osc.case is PerazzoCase.OSCULATING
        assert osc.divisor_pattern == (3,)
        assert osc.g_compatible
        assert osc.normalization is not None
        assert osc.normalization.first.render() == "u"
        assert osc.normalization.second.render() == "v"

        tan = classify(tangent_point_family(d, g_coeffs=(2, 0, -1)))
        assert tan.case is PerazzoCase.TANGENT_PLUS_POINT
        assert tan.divisor_pattern == (2, 1)
        assert tan.g_compatible
        assert tan.normalization.first.render() == "u"
        assert tan.normalization.second.render() == "v"

        three = classify(three_points_family(d, 2, 3, g_coeffs=(1, 1, 1)))
        assert three.case is PerazzoCase.THREE_POINTS
        assert three.divisor_pattern == (1, 1, 1)
        assert three.g_compatible
        assert three.normalization.first.render() == "v"
        assert three.normalization.second.render() == "2*u + 3*v"
        assert three.normalization.lam == Fraction(-3, 2)
        assert three.normalization.mu == Fraction(1, 2)


def test_classify_big_coefficient_three_points_within_budget():
    # Root finding must be polynomial in the bit length: a divisor search over
    # the coefficients 2^31 - 1 and 2^61 - 1 never finishes.  A child process
    # keeps a hang from stalling the suite.
    code = (
        "from perazzo.forms import classify, three_points_family\n"
        "cls = classify(three_points_family(5, 2**31 - 1, 2**61 - 1))\n"
        "print(cls.case.value, cls.divisor_pattern)"
    )
    src = str(Path(perazzo.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    child = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=10, env=env
    )
    assert child.stdout.split("\n")[0] == f"{PerazzoCase.THREE_POINTS.value} (1, 1, 1)"


def test_three_points_normalization_contract():
    # lam * first + mu * second recovers the middle intersection point, so the
    # span of (first^(d-1), middle^(d-1), second^(d-1)) equals the p-span.
    for d, lam_in, mu_in in ((6, 2, 3), (7, 1, -2), (5, Fraction(1, 2), 1)):
        pf = three_points_family(d, lam_in, mu_in)
        cls = classify(pf)
        norm = cls.normalization
        middle = norm.first.scale(norm.lam) + norm.second.scale(norm.mu)
        rebuilt = [norm.first ** (d - 1), middle ** (d - 1), norm.second ** (d - 1)]
        stacked = RationalMatrix(
            [coeff_vector(p, descale=False) for p in (pf.p0, pf.p1, pf.p2)]
            + [coeff_vector(p, descale=False) for p in rebuilt],
            ncols=d,
        )
        assert stacked.rank() == 3


def test_classify_incompatible_g_is_non_minimal(uv):
    fam = osculating_family(7)
    bad = PerazzoForm(fam.p0, fam.p1, fam.p2, HomogeneousPoly.monomial(uv, (0, 7)))
    cls = classify(bad)
    assert cls.case is PerazzoCase.NON_MINIMAL
    assert not cls.g_compatible
    assert cls.divisor_pattern == (3,)  # the plane itself is still osculating
    assert cls.normalization is None
    assert h_vector(bad.to_polynomial()) == (1, 5, 6, 7, 7, 6, 5, 1)


def test_classify_generic_form_is_non_minimal():
    pf = random_perazzo_form(6, seed=3)
    cls = classify(pf)
    assert cls.case is PerazzoCase.NON_MINIMAL
    assert h_vector(pf.to_polynomial()) != min_hvector(6)


def test_classify_irrational_three_points(uv):
    # p-span = kernel of the operator U^3 - 2 U V^2, whose roots are rational
    # only at one point; the case is decided without the roots themselves.
    d = 6
    w_terms = {(3, 0): Fraction(1), (1, 2): Fraction(-2)}
    cols = monomials(2, d - 1)
    rows = []
    for rm in monomials(2, d - 4):
        row = []
        for cm in cols:
            total = Fraction(0)
            for we, wc in w_terms.items():
                img = apply_monomial_op(we, HomogeneousPoly.monomial(uv, cm))
                total += wc * img.coefficient(rm)
            row.append(total)
        rows.append(row)
    kernel = RationalMatrix(rows, ncols=len(cols)).kernel_basis()
    assert len(kernel) == 3
    ps = [
        HomogeneousPoly(uv, d - 1, {e: c for e, c in zip(cols, vec) if c})
        for vec in kernel
    ]
    pf = PerazzoForm(ps[0], ps[1], ps[2])
    cls = classify(pf)
    assert cls.case is PerazzoCase.THREE_POINTS
    assert cls.divisor.render() == "s^3 - 2*s*t^2"
    assert rational_roots(cls.divisor) is None
    assert cls.normalization is None
    assert h_via_ranks(pf).exact == min_hvector(d)


def test_classify_degree_guard_and_polynomial_wrapper(xring):
    with pytest.raises(ValueError):
        classify(random_perazzo_form(4))
    bad_shape = parse_poly("x0^2*u^4 + x1*u^5 + x2*v^5", xring)
    verdict = classify_polynomial(bad_shape)
    assert verdict.case is PerazzoCase.NOT_PERAZZO
    assert verdict.divisor is None
    assert not verdict.g_compatible
    good = osculating_family(6).to_polynomial()
    assert classify_polynomial(good).case is PerazzoCase.OSCULATING


def test_minimality_matches_positive_case_on_spec_protocol():
    rng = random.Random(509)
    # Positives: normal families through random invertible (u,v) changes.
    for d in (5, 6):
        for builder in (
            lambda d: osculating_family(d, g_coeffs=(1, 2, -1)),
            lambda d: tangent_point_family(d, g_coeffs=(0, 1, 2)),
            lambda d: three_points_family(d, 2, -1, g_coeffs=(1, 0, 1)),
        ):
            pf = builder(d)
            while True:
                m = (
                    (rng.randint(-3, 3), rng.randint(-3, 3)),
                    (rng.randint(-3, 3), rng.randint(-3, 3)),
                )
                if m[0][0] * m[1][1] - m[0][1] * m[1][0] != 0:
                    break
            moved = change_uv(pf, m)
            cls = classify(moved)
            assert cls.case is not PerazzoCase.NON_MINIMAL
            assert cls.g_compatible
            assert h_vector(moved.to_polynomial()) == min_hvector(d)
    # Negatives: random forms are generically non-minimal and classify as such.
    for d in (5, 6):
        for _ in range(4):
            pf = random_perazzo_form(d, seed=rng.randint(0, 10**6))
            cls = classify(pf)
            assert cls.case is PerazzoCase.NON_MINIMAL
            assert h_vector(pf.to_polynomial()) != min_hvector(d)


def _family_with_extra_term(build, d, g, k, c):
    pf = build(d, g_coeffs=g)
    k %= d + 1
    extra = HomogeneousPoly.monomial(pf.vars, (d - k, k)).scale(c)
    return PerazzoForm(pf.p0, pf.p1, pf.p2, pf.g + extra)


def _plane_through_points(d, seed, with_g, points):
    # the first `points` of u^(d-1), v^(d-1) replace random p_i
    pf = random_perazzo_form(d, seed=seed, with_g=with_g)
    powers = [HomogeneousPoly.monomial(pf.vars, e) for e in ((d - 1, 0), (0, d - 1))]
    ps = powers[:points] + [pf.p0, pf.p1, pf.p2][points:]
    return PerazzoForm(ps[0], ps[1], ps[2], pf.g)


_unmoved_forms = st.one_of(
    st.builds(
        _family_with_extra_term,
        st.sampled_from([osculating_family, tangent_point_family, three_points_family]),
        st.integers(5, 9),
        st.tuples(*[st.integers(-3, 3)] * 3),
        st.integers(0, 9),
        st.sampled_from([0, 1, -2]),
    ),
    st.builds(
        _plane_through_points,
        st.integers(5, 9),
        st.integers(0, 10**6),
        st.booleans(),
        st.integers(0, 2),
    ),
)
_uv_changes = st.tuples(
    st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
    st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
).filter(lambda m: m[0][0] * m[1][1] != m[0][1] * m[1][0])


@settings(max_examples=60, derandomize=True, deadline=None)
@given(pf=st.one_of(_unmoved_forms, st.builds(change_uv, _unmoved_forms, _uv_changes)))
def test_classify_matches_minors_and_cubic_annihilator_oracles(pf):
    # The divisor against the gcd of the bordered 4x4 minors (equal up to a
    # scalar), and the g test against both cubic annihilator dimensions.
    divisor = intersection_divisor(pf)
    expected = sympy_intersection_divisor([pf.a, pf.b, pf.c])
    assert divisor.terms.keys() == expected.keys()
    assert len({divisor.terms[e] / expected[e] for e in expected}) == 1
    dim_p, dim_f = sympy_cubic_annihilator_dims((pf.p0, pf.p1, pf.p2), pf.g)
    assert classify(pf).g_compatible == (dim_p == 1 and dim_f == 1)


# -- algebraic relations ---------------------------------------------------------


def substitute_relation(rel, triple):
    total = HomogeneousPoly.zero(triple[0].vars, rel.degree * triple[0].degree)
    for exps, coeff in rel.terms.items():
        term = HomogeneousPoly(triple[0].vars, 0, {(0, 0): Fraction(1)})
        for p, e in zip(triple, exps):
            term = term * p**e
        total = total + term.scale(coeff)
    return total


def test_algebraic_relation_conic(uv, u, v):
    rel = algebraic_relation(u * u, u * v, v * v)
    assert rel is not None
    assert rel.render() == "z0*z2 - z1^2"
    assert tuple(rel.vars.names) == ("z0", "z1", "z2")


def test_algebraic_relation_power_triples(uv, u, v):
    for d in (4, 5, 6):
        rel = algebraic_relation(u ** (d - 1), u ** (d - 2) * v, v ** (d - 1))
        assert rel is not None
        lead = {(d - 2, 0, 1): Fraction(1), (0, d - 1, 0): Fraction(-1)}
        assert rel.terms == lead
        assert substitute_relation(
            rel, (u ** (d - 1), u ** (d - 2) * v, v ** (d - 1))
        ).is_zero()


def test_algebraic_relation_substitutes_to_zero(uv):
    rng = random.Random(510)
    found = 0
    while found < 6:
        e = rng.randint(2, 4)
        triple = [
            random_binary_form(e, bound=3, seed=rng.randint(0, 10**6), vars=uv)
            for _ in range(3)
        ]
        if any(p.is_zero() for p in triple):
            continue
        rel = algebraic_relation(*triple)
        assert rel is not None  # binary triples are always dependent
        assert substitute_relation(rel, triple).is_zero()
        for exps in rel.terms:
            assert sum(exps) == rel.degree
        found += 1


def test_algebraic_relation_quartic_example(uv, u, v):
    rel = algebraic_relation(u**4, (u + v) ** 4, v**4)
    assert rel is not None
    assert rel.degree == 4
    assert substitute_relation(rel, (u**4, (u + v) ** 4, v**4)).is_zero()


def test_algebraic_relation_respects_degree_cap(uv, u, v):
    assert algebraic_relation(u * u, u * v, v * v, max_relation_degree=1) is None


# -- cone detection ---------------------------------------------------------------


def test_is_cone_frozen_examples(uv, u, v, xring):
    assert is_cone(u**3)
    assert not is_cone(u * u + v * v)
    only_uv = parse_poly("u^5 + u^3*v^2", xring)
    assert is_cone(only_uv)
    with pytest.raises(ValueError):
        is_cone(HomogeneousPoly.zero(uv, 2))


def test_perazzo_forms_are_not_cones():
    for d in (4, 5, 6):
        for seed in (0, 1):
            assert not is_cone(random_perazzo_form(d, seed=seed).to_polynomial())


# -- generators --------------------------------------------------------------------


def test_random_perazzo_form_determinism():
    a = random_perazzo_form(6, seed=42)
    b = random_perazzo_form(6, seed=42)
    assert a == b
    c = random_perazzo_form(6, seed=43)
    assert a != c
    no_g = random_perazzo_form(6, seed=42, with_g=False)
    assert no_g.g.is_zero()
    with pytest.raises(ValueError):
        random_perazzo_form(2)
    with pytest.raises(ValueError):
        random_perazzo_form(5, bound=0)


def test_family_validation():
    with pytest.raises(ValueError):
        osculating_family(2)
    with pytest.raises(ValueError):
        three_points_family(6, 0, 1)
    with pytest.raises(ValueError):
        three_points_family(6, 1, 0)
    custom = binary_variables(("s", "t"))
    pf = tangent_point_family(5, vars=custom)
    assert pf.vars == custom
