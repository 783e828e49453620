"""Binary-form arithmetic: gcd, factorization, roots, squarefreeness."""

import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from perazzo.binary import (
    binary_divides,
    binary_gcd,
    binary_partials,
    is_squarefree,
    linear_factors,
    normalize_binary,
    rational_roots,
)
from perazzo.poly import HomogeneousPoly, VariableSet, random_binary_form

from oracles import sympy_rational_roots

SU, SV = sympy.symbols("su sv")


def to_sympy(p: HomogeneousPoly):
    return sum(
        sympy.Rational(c.numerator, c.denominator) * SU**a * SV**b
        for (a, b), c in p.terms.items()
    )


def from_sympy(expr, vars: VariableSet, degree: int) -> HomogeneousPoly:
    poly = sympy.Poly(expr, SU, SV)
    terms = {
        (a, b): Fraction(int(sympy.numer(c)), int(sympy.denom(c)))
        for (a, b), c in poly.terms()
    }
    return HomogeneousPoly(vars, degree, terms)


def linear(vars: VariableSet, a: int, b: int) -> HomogeneousPoly:
    return HomogeneousPoly(vars, 1, {(1, 0): Fraction(a), (0, 1): Fraction(b)})


def nonzero_form(rng: random.Random, vars: VariableSet, degree: int) -> HomogeneousPoly:
    while True:
        p = random_binary_form(degree, bound=4, seed=rng.randint(0, 10**6), vars=vars)
        if not p.is_zero():
            return p


def test_binary_gcd_matches_sympy_on_seeded_pairs(uv):
    rng = random.Random(301)
    for _ in range(25):
        common = nonzero_form(rng, uv, rng.randint(0, 2))
        a = nonzero_form(rng, uv, rng.randint(1, 3))
        b = nonzero_form(rng, uv, rng.randint(1, 3))
        p = a * common
        q = b * common
        g = binary_gcd(p, q)
        sg = sympy.gcd(to_sympy(p), to_sympy(q))
        expected = normalize_binary(
            from_sympy(sg, uv, int(sympy.Poly(sg, SU, SV).total_degree()))
        )
        assert g == expected
        assert binary_divides(g, p)
        assert binary_divides(g, q)


def test_binary_gcd_degenerate_arguments(uv, u, v):
    zero = HomogeneousPoly.zero(uv, 2)
    p = (u - v) * (u + v)
    assert binary_gcd(p, zero) == normalize_binary(p)
    assert binary_gcd(zero, p) == normalize_binary(p)
    with pytest.raises(ValueError):
        binary_gcd(zero, zero)
    # Pure v-powers exercise the valuation bookkeeping.
    assert binary_gcd(v**3, v * u) == v
    assert binary_gcd(u**2, v**2).degree == 0


def test_linear_factors_reconstructs_seeded_products(uv, u, v):
    rng = random.Random(302)
    # Rootless cofactors, one with a leading coefficient other than +-1.
    cofactors = [None, u * u + v * v, (u * u).scale(2) + (v * v).scale(3)]
    for _ in range(40):
        scalar = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 2, 5, 7]))
        p = HomogeneousPoly(uv, 0, {(0, 0): scalar})
        for _ in range(rng.randint(1, 4)):
            p = p * linear(uv, rng.randint(-3, 3), rng.randint(-3, 3) or 1)
        if rng.random() < 0.3:
            p = p * v ** rng.randint(1, 3)
        cofactor = rng.choice(cofactors)
        if cofactor is not None:
            p = p * cofactor
        got_scalar, factors, remainder = linear_factors(p)
        product = HomogeneousPoly(uv, 0, {(0, 0): Fraction(1)})
        for form, mult in factors:
            product = product * form**mult
        if remainder is not None:
            product = product * remainder
        assert product.scale(got_scalar) == p
        forms = [form for form, _ in factors]
        assert len({f.render() for f in forms}) == len(forms)


def test_linear_factors_frozen_examples(uv, u, v):
    scalar, factors, remainder = linear_factors(u * v.scale(6) * (u - v))
    assert scalar == 6
    assert remainder is None
    rendered = {(form.render(), mult) for form, mult in factors}
    assert rendered == {("v", 1), ("u", 1), ("u - v", 1)}

    scalar, factors, remainder = linear_factors(u**3 - v**3)
    assert scalar == 1
    assert [(form.render(), mult) for form, mult in factors] == [("u - v", 1)]
    assert remainder is not None
    assert remainder.render() == "u^2 + u*v + v^2"

    scalar, factors, remainder = linear_factors((u - v.scale(2)) ** 3 * v**2)
    assert dict((form.render(), mult) for form, mult in factors) == {
        "u - 2*v": 3,
        "v": 2,
    }
    assert remainder is None

    constant = HomogeneousPoly(uv, 0, {(0, 0): Fraction(5)})
    assert linear_factors(constant) == (Fraction(5), [], None)

    with pytest.raises(ValueError):
        linear_factors(HomogeneousPoly.zero(uv, 2))


def test_rational_roots_of_split_forms(uv, u, v):
    p = (u - v) * (u - v.scale(2)) * (u - v.scale(2)) * (u + v.scale(3))
    roots = rational_roots(p)
    assert roots is not None
    assert dict(roots) == {(1, 1): 1, (2, 1): 2, (3, -1): 1}
    for (a, b), _ in roots:
        assert p.evaluate([Fraction(a), Fraction(b)]) == 0
        assert a > 0 or (a == 0 and b > 0)

    assert dict(rational_roots(u * v * (u.scale(2) - v.scale(3)))) == {
        (0, 1): 1,
        (1, 0): 1,
        (3, 2): 1,
    }


def test_rational_roots_none_when_irrational_or_complex(uv, u, v):
    assert rational_roots(u * u + v * v) is None
    assert rational_roots(u * u - v * v.scale(2)) is None
    # One rational root does not rescue an irreducible cofactor.
    assert rational_roots(u**3 - v**3) is None


_BIG = 2**60
_coordinate = st.one_of(st.integers(-12, 12), st.integers(-_BIG, _BIG))
_root = st.one_of(
    st.sampled_from([(1, 0), (0, 1)]),
    st.tuples(_coordinate, _coordinate).filter(lambda r: r != (0, 0)),
)


@settings(max_examples=120, derandomize=True, deadline=None)
@given(
    planted=st.lists(st.tuples(_root, st.integers(1, 3)), min_size=0, max_size=4),
    scalar=st.fractions(min_value=-50, max_value=50, max_denominator=20).filter(bool),
    # (a, b, c) with b^2 < 4ac: a u^2 + b u v + c v^2 has no rational root.
    quadratic=st.none()
    | st.tuples(st.integers(1, _BIG), st.integers(-3, 3), st.integers(1, _BIG)).filter(
        lambda q: q[1] ** 2 < 4 * q[0] * q[2]
    ),
)
def test_rational_roots_match_sympy_factorization(planted, scalar, quadratic):
    uv = VariableSet(("u", "v"))
    # The form vanishing at (a, b) is b u - a v.
    p = HomogeneousPoly(uv, 0, {(0, 0): scalar})
    for (a, b), mult in planted:
        p = p * linear(uv, b, -a) ** mult
    if quadratic is not None:
        a, b, c = quadratic
        p = p * HomogeneousPoly(uv, 2, {(2, 0): a, (1, 1): b, (0, 2): c})
    expected = sympy_rational_roots(p.terms)
    got = rational_roots(p)
    if quadratic is not None:
        assert expected is None
    if expected is None:
        assert got is None
        return
    assert got is not None
    assert len({root for root, _ in got}) == len(got)
    assert dict(got) == expected
    # Root k of rational_roots is the root of factor k of linear_factors.
    _, factors, remainder = linear_factors(p)
    assert remainder is None
    assert [mult for _, mult in factors] == [mult for _, mult in got]
    for (form, _), ((a, b), _) in zip(factors, got):
        assert form.evaluate([Fraction(a), Fraction(b)]) == 0


def test_is_squarefree(uv, u, v):
    assert is_squarefree(u * v * (u + v))
    assert is_squarefree(u * u + v * v)
    assert is_squarefree(u - v)
    assert is_squarefree(HomogeneousPoly(uv, 0, {(0, 0): Fraction(4)}))
    assert not is_squarefree(u * u * v)
    assert not is_squarefree((u + v) * (u + v))
    assert not is_squarefree((u * u + v * v) ** 2)
    with pytest.raises(ValueError):
        is_squarefree(HomogeneousPoly.zero(uv, 1))


def test_partials_satisfy_euler_identity(uv, u, v):
    rng = random.Random(303)
    for _ in range(15):
        degree = rng.randint(1, 6)
        p = random_binary_form(degree, bound=6, seed=rng.randint(0, 10**6), vars=uv)
        pu, pv = binary_partials(p)
        assert u * pu + v * pv == p.scale(degree)
    with pytest.raises(ValueError):
        binary_partials(HomogeneousPoly(uv, 0, {(0, 0): Fraction(1)}))


def test_binary_divides_on_seeded_products(uv, u, v):
    rng = random.Random(304)
    for _ in range(20):
        q = random_binary_form(rng.randint(1, 3), bound=4, seed=rng.randint(0, 10**6), vars=uv)
        cof = random_binary_form(rng.randint(0, 3), bound=4, seed=rng.randint(0, 10**6), vars=uv)
        assert binary_divides(q, q * cof)
    assert binary_divides(v * v, u * v**3)
    assert not binary_divides(v * v, u**3 * v)
    assert not binary_divides(u - v, u * u + v * v)
    assert not binary_divides(u**3, u**2)
    assert binary_divides(u - v, HomogeneousPoly.zero(uv, 4))
    with pytest.raises(ValueError):
        binary_divides(HomogeneousPoly.zero(uv, 1), u)


def test_normalize_binary_contract(uv, u, v):
    p = u.scale(Fraction(-2, 3)) * u + u.scale(Fraction(4, 3)) * v
    n = normalize_binary(p)
    assert n == u * u - u * v.scale(2)
    assert normalize_binary(n) == n
    coeffs = [c for c in n.terms.values()]
    assert all(c.denominator == 1 for c in coeffs)
    assert n.terms[n.leading_monomial()] > 0
    zero = HomogeneousPoly.zero(uv, 3)
    assert normalize_binary(zero) == zero


def test_normalize_binary_random_properties(uv):
    rng = random.Random(305)
    for _ in range(20):
        p = random_binary_form(rng.randint(1, 5), bound=9, seed=rng.randint(0, 10**6), vars=uv)
        scaled = p.scale(Fraction(rng.choice([-6, -4, 2, 3]), rng.choice([2, 3, 5])))
        assert normalize_binary(scaled) == normalize_binary(p)


def test_binary_helpers_reject_wider_rings():
    wide = VariableSet(("x", "y", "z"))
    p = HomogeneousPoly.monomial(wide, (1, 1, 0))
    with pytest.raises(ValueError):
        normalize_binary(p)
    with pytest.raises(ValueError):
        is_squarefree(p)
