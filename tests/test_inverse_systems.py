"""Catalecticants, h-vectors, annihilators, and Macaulay growth bounds."""

import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from perazzo.errors import GuardError
from perazzo.forms import h_via_ranks, random_perazzo_form, tangent_point_family
from perazzo.inverse_systems import (
    HVector,
    ann_basis,
    binomial_expansion,
    catalecticant,
    ensure_desk_scale,
    green_bound,
    h_vector,
    is_osequence,
    macaulay_lower,
    macaulay_upper,
)
from perazzo.parsing import parse_poly
from perazzo.poly import HomogeneousPoly, VariableSet, monomial_count, monomials

from conftest import apolar_apply
from oracles import monomial_h_vector, sympy_h_vector


def test_catalecticant_frozen_entries_for_u3v(uv, u, v):
    f = u ** 3 * v
    cat = catalecticant(f, 2)
    assert cat.col_monomials == ((2, 0), (1, 1), (0, 2))
    assert cat.row_monomials == ((2, 0), (1, 1), (0, 2))
    # d/du^2 sends u^3 v to 6uv; du dv sends it to 3u^2; dv^2 kills it.
    assert cat.matrix.rows == [
        [Fraction(0), Fraction(3), Fraction(0)],
        [Fraction(6), Fraction(0), Fraction(0)],
        [Fraction(0), Fraction(0), Fraction(0)],
    ]
    assert cat.rank() == 2


def test_catalecticant_endpoints(uv, u, v):
    f = u ** 2 * v
    top = catalecticant(f, 0)
    assert top.rank() == 1
    bottom = catalecticant(f, 3)
    assert bottom.matrix.shape == (1, 4)
    assert bottom.rank() == 1
    with pytest.raises(ValueError):
        catalecticant(f, 4)
    with pytest.raises(ValueError):
        catalecticant(f, -1)


@pytest.mark.parametrize("d", [14, 24, 32])
def test_h_vector_matches_block_ranks_at_high_degree(d):
    for pf in (random_perazzo_form(d, seed=1000), tangent_point_family(d)):
        exact = h_via_ranks(pf).exact
        assert exact is not None
        assert h_vector(pf.to_polynomial()) == exact


_FRACTIONS = [Fraction(k, m) for k in (-7, -2, -1, 1, 3, 5) for m in (1, 2, 3, 11)]


@st.composite
def _catalecticant_inputs(draw):
    """Non-Perazzo ternary and quinary forms, and Perazzo forms with and
    without g, all with fractional coefficients."""
    kind = draw(st.sampled_from(["ternary", "quinary", "perazzo", "perazzo-no-g"]))
    rng = random.Random(draw(st.integers(0, 10**6)))
    if kind.startswith("perazzo"):
        d = draw(st.integers(3, 6))
        pf = random_perazzo_form(d, seed=rng.randint(0, 10**6), with_g=kind == "perazzo")
        f = pf.to_polynomial()
        return HomogeneousPoly(f.vars, d, {e: c * rng.choice(_FRACTIONS) for e, c in f.terms.items()})
    n = 3 if kind == "ternary" else 5
    d = draw(st.integers(1, 6 if n == 3 else 4))
    support = rng.sample(monomials(n, d), min(rng.randint(1, 8), monomial_count(n, d)))
    vars = VariableSet(tuple(f"z{i}" for i in range(n)))
    return HomogeneousPoly(vars, d, {e: rng.choice(_FRACTIONS) for e in support})


@settings(max_examples=60, derandomize=True, deadline=None)
@given(f=_catalecticant_inputs())
def test_live_block_matches_dense_catalecticant(f):
    dual = f.vars.dual()
    for t in range(f.degree + 1):
        cat = catalecticant(f, t)
        assert cat.matrix.shape == (len(cat.row_monomials), len(cat.col_monomials))
        assert cat.rank() == cat.matrix.rank()
        dense = []
        for vec in cat.matrix.kernel_basis():
            p = HomogeneousPoly(dual, t, dict(zip(cat.col_monomials, vec)))
            dense.append(-p if p.terms[p.leading_monomial()] < 0 else p)
        assert [op.terms for op in ann_basis(f, t)] == [p.terms for p in dense]


def test_h_vector_of_monomials_matches_divisor_count():
    cases = [
        ("u", (3, 1)),
        ("u", (5,)),
        ("u", (2, 2)),
        ("u", (4, 2)),
        ("x", (1, 1, 1)),
        ("x", (3, 2, 1)),
        ("x", (2, 2, 2)),
    ]
    for stem, exps in cases:
        names = tuple(f"{stem}{i}" for i in range(len(exps)))
        vars = VariableSet(names)
        f = HomogeneousPoly.monomial(vars, exps)
        assert tuple(h_vector(f)) == monomial_h_vector(exps)


def test_h_vector_matches_sympy_on_random_ternary_forms():
    rng = random.Random(201)
    syms = sympy.symbols("a b c")
    vars = VariableSet(("a", "b", "c"))
    for _ in range(6):
        degree = rng.randint(2, 4)
        terms = {}
        for e in monomials(3, degree):
            if rng.random() < 0.5:
                terms[e] = Fraction(rng.randint(-4, 4))
        if not any(terms.values()):
            terms[(degree, 0, 0)] = Fraction(1)
        f = HomogeneousPoly(vars, degree, terms)
        expr = sum(
            int(c) * syms[0] ** e[0] * syms[1] ** e[1] * syms[2] ** e[2]
            for e, c in terms.items()
        )
        assert tuple(h_vector(f)) == sympy_h_vector(expr, syms)


def test_h_vector_known_values():
    xvars = VariableSet(("x0", "x1", "x2", "x3", "x4"))
    cubic = parse_poly("x0^2*x4 + x1^2*x3 + x2^3", xvars)
    assert h_vector(cubic) == (1, 5, 5, 1)

    ikeda_vars = VariableSet(("x0", "x1", "x2", "x3"))
    ikeda = parse_poly("x0*x2^3*x3 + x1*x2*x3^3 + x0^3*x1^2", ikeda_vars)
    assert h_vector(ikeda) == (1, 4, 10, 10, 4, 1)


def test_h_vector_symmetry_and_osequence_on_seeded_forms():
    rng = random.Random(202)
    for nvars in (2, 3, 4):
        vars = VariableSet(tuple(f"x{i}" for i in range(nvars)))
        for _ in range(5):
            degree = rng.randint(2, 4)
            terms = {
                e: Fraction(rng.randint(-3, 3))
                for e in monomials(nvars, degree)
                if rng.random() < 0.6
            }
            if not any(terms.values()):
                continue
            hv = h_vector(HomogeneousPoly(vars, degree, terms))
            assert hv.is_symmetric()
            assert is_osequence(hv)
            assert hv[0] == 1
            assert hv.socle_degree == degree


def test_h_vector_rejects_zero():
    vars = VariableSet(("u", "v"))
    with pytest.raises(ValueError):
        h_vector(HomogeneousPoly.zero(vars, 3))


def test_ann_basis_of_u3v(uv, u, v):
    f = u ** 3 * v
    ops = ann_basis(f, 2)
    assert len(ops) == monomial_count(2, 2) - h_vector(f)[2]
    assert len(ops) == 1
    assert ops[0].render() == "V^2"
    assert ops[0].vars == uv.dual()
    for op in ops:
        assert apolar_apply(op, f).is_zero()


def test_ann_basis_spans_kernel_in_every_degree():
    rng = random.Random(203)
    vars = VariableSet(("a", "b", "c"))
    for _ in range(5):
        degree = rng.randint(2, 4)
        terms = {
            e: Fraction(rng.randint(-3, 3))
            for e in monomials(3, degree)
            if rng.random() < 0.5
        }
        if not any(terms.values()):
            continue
        f = HomogeneousPoly(vars, degree, terms)
        hv = h_vector(f)
        for t in range(degree + 1):
            ops = ann_basis(f, t)
            assert len(ops) == monomial_count(3, t) - hv[t]
            for op in ops:
                assert op.degree == t
                assert apolar_apply(op, f).is_zero()
                lead = op.terms[op.leading_monomial()]
                assert lead > 0


def test_ann_basis_above_socle_degree_is_everything(uv, u, v):
    f = u * v
    ops = ann_basis(f, 3)
    assert len(ops) == monomial_count(2, 3)
    rendered = {op.render() for op in ops}
    assert rendered == {"U^3", "U^2*V", "U*V^2", "V^3"}
    with pytest.raises(ValueError):
        ann_basis(f, -1)


def test_guard_refuses_oversized_inputs():
    vars = VariableSet(("u", "v"))
    tall = HomogeneousPoly.monomial(vars, (33, 0))
    with pytest.raises(GuardError):
        ensure_desk_scale(tall)
    with pytest.raises(GuardError):
        h_vector(tall)
    # Raising the limit explicitly lets the same input through.
    assert h_vector(tall, max_degree=40) == tuple([1] * 34)

    wide_vars = VariableSet(tuple(f"x{i}" for i in range(9)))
    wide = HomogeneousPoly.monomial(wide_vars, (1,) * 9)
    with pytest.raises(GuardError):
        ensure_desk_scale(wide)
    assert h_vector(wide, max_vars=9)[1] == 9


def test_ann_basis_guards_the_operator_degree(uv, u, v):
    # Above deg f the basis is all of S_t, C(t+n-1, n-1) operators, so t past
    # the degree guard is refused like a form of that degree.
    f = u ** 3 * v
    with pytest.raises(GuardError, match="operator degree 33"):
        ann_basis(f, 33)
    assert len(ann_basis(f, 32)) == monomial_count(2, 32)
    assert len(ann_basis(f, 33, max_degree=40)) == monomial_count(2, 33)


def test_guard_message_names_the_limit():
    vars = VariableSet(("u", "v"))
    tall = HomogeneousPoly.monomial(vars, (40, 0))
    with pytest.raises(GuardError, match="max_degree"):
        catalecticant(tall, 1)


def test_binomial_expansion_reconstructs_and_is_canonical():
    rng = random.Random(204)
    for _ in range(200):
        n = rng.randint(1, 10**4)
        d = rng.randint(1, 10)
        pairs = binomial_expansion(n, d)
        assert sum(sympy.binomial(a, j) for a, j in pairs) == n
        tops = [a for a, _ in pairs]
        lows = [j for _, j in pairs]
        assert tops == sorted(tops, reverse=True)
        assert lows == list(range(d, d - len(pairs), -1))
        assert all(a >= j >= 1 for a, j in pairs)
    with pytest.raises(ValueError):
        binomial_expansion(0, 3)
    with pytest.raises(ValueError):
        binomial_expansion(3, 0)


def test_macaulay_bounds_known_values():
    # 3 = C(3,1): upper shift gives C(4,2) = 6.
    assert macaulay_upper(3, 1) == 6
    # 4 = C(3,2) + C(1,1): upper C(4,3) + C(2,2) = 5, lower C(2,2) + C(0,1) = 1.
    assert macaulay_upper(4, 2) == 5
    assert macaulay_lower(4, 2) == 1
    # 6 = C(6,6) + ... + C(1,1) drops to nothing one row down.
    assert macaulay_lower(6, 6) == 0
    assert macaulay_upper(1, 5) == 1
    assert macaulay_lower(1, 5) == 0


def test_is_osequence_examples():
    assert is_osequence((1,))
    assert is_osequence((1, 5, 5, 1))
    assert is_osequence((1, 4, 10, 10, 4, 1))
    assert is_osequence((1, 5, 9, 11, 11, 11, 11, 9, 5, 1))
    assert not is_osequence((1, 2, 5))
    assert not is_osequence((2, 1))
    assert not is_osequence(())
    assert not is_osequence((1, -1))
    # Growth after a zero entry is not allowed.
    assert not is_osequence((1, 2, 0, 1))


def test_is_osequence_accepts_computed_h_vectors():
    rng = random.Random(205)
    vars = VariableSet(("a", "b", "c"))
    for _ in range(8):
        degree = rng.randint(2, 5)
        terms = {
            e: Fraction(rng.randint(-3, 3))
            for e in monomials(3, degree)
            if rng.random() < 0.5
        }
        if not any(terms.values()):
            continue
        assert is_osequence(h_vector(HomogeneousPoly(vars, degree, terms)))


def test_green_bound_values_and_monotonicity():
    assert green_bound(1, 1) == 0
    # 5 = C(3,2) + C(2,1): lower C(2,2) + C(1,1) = 2.
    assert green_bound(5, 2) == 2
    for t in (1, 2, 3):
        prev = green_bound(1, t)
        for n in range(2, 30):
            cur = green_bound(n, t)
            assert cur >= prev
            assert cur < n
            prev = cur


def test_hvector_container_behaviour():
    hv = HVector((1, 3, 3, 1))
    assert len(hv) == 4
    assert hv[1] == 3
    assert list(hv) == [1, 3, 3, 1]
    assert hv == (1, 3, 3, 1)
    assert hv == [1, 3, 3, 1]
    assert hv == HVector((1, 3, 3, 1))
    assert hash(hv) == hash(HVector((1, 3, 3, 1)))
    with pytest.raises(ValueError):
        HVector(())
    with pytest.raises(ValueError):
        HVector((1, -2))
