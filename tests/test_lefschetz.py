"""Higher Hessians and the weak and strong Lefschetz properties."""

import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from perazzo.bareiss import rank_int
from perazzo.forms import (
    max_hvector,
    osculating_family,
    random_perazzo_form,
    tangent_point_family,
    three_points_family,
)
from perazzo.lefschetz import (
    CERT_ALL_SPECIALIZATIONS_DEFICIENT,
    CERT_GENERIC_RANK_MAXIMAL,
    CERT_HESSIAN_NONZERO,
    CERT_HESSIAN_VANISHES,
    check_lefschetz_element,
    has_slp,
    has_wlp,
    hessian,
    monomial_basis_of_A,
    mult_map_matrix,
)
from perazzo import inverse_systems, lefschetz
from perazzo.inverse_systems import catalecticant, h_vector
from perazzo.linalg import PolyMatrix, generic_rank
from perazzo.parsing import parse_poly
from perazzo.poly import HomogeneousPoly, VariableSet, random_binary_form


@pytest.fixture(scope="module")
def ikeda():
    vars = VariableSet(("x0", "x1", "x2", "x3"))
    return parse_poly("x0*x2^3*x3 + x1*x2*x3^3 + x0^3*x1^2", vars)


@pytest.fixture(scope="module")
def wlp_sextic_pair(xring):
    holds = parse_poly("u^6*x0 + u^2*v^4*x1 + u^4*v^2*x1 + v^6*x2", xring)
    fails = parse_poly("u^6*x0 + u^3*v^3*x1 + v^6*x2", xring)
    return holds, fails


def test_basis_sizes_match_h_vector(ikeda):
    h = h_vector(ikeda)
    for t in range(ikeda.degree + 1):
        basis = monomial_basis_of_A(ikeda, t)
        assert len(basis) == h[t]
        assert len(monomial_basis_of_A(ikeda, t, reverse=True)) == h[t]
        assert all(sum(op) == t for op in basis)


def test_basis_argument_validation(ikeda):
    with pytest.raises(ValueError):
        monomial_basis_of_A(ikeda, -1)
    with pytest.raises(ValueError):
        monomial_basis_of_A(ikeda, ikeda.degree + 1)
    with pytest.raises(ValueError):
        monomial_basis_of_A(HomogeneousPoly.zero(ikeda.vars, 3), 1)


def test_ikeda_second_hessian_vanishes(ikeda):
    first = hessian(ikeda, 1)
    assert not first.vanishes
    assert first.determinant.degree == 4 * (ikeda.degree - 2)

    second = hessian(ikeda, 2)
    assert second.vanishes
    assert second.determinant.is_zero()
    assert len(second.basis) == 10
    assert second.matrix.shape == (10, 10)
    # Basis independence: the reversed greedy basis agrees on vanishing.
    assert hessian(ikeda, 2, reverse=True).vanishes


def test_ikeda_fails_wlp_at_degree_three(ikeda):
    verdict = has_wlp(ikeda)
    assert verdict.property == "WLP"
    assert not verdict.holds
    assert verdict.failing_degree == 3
    assert verdict.certificate == CERT_ALL_SPECIALIZATIONS_DEFICIENT
    assert verdict.witness is None


def test_ikeda_fails_slp(ikeda):
    verdict = has_slp(ikeda, full=True)
    assert not verdict.holds
    assert verdict.failing_degree == 2
    assert verdict.certificate == CERT_HESSIAN_VANISHES
    assert verdict.vanishing_orders == (2,)


def test_sextic_with_wlp(wlp_sextic_pair):
    holds, _ = wlp_sextic_pair
    assert h_vector(holds) == (1, 5, 7, 8, 8, 7, 5, 1)
    verdict = has_wlp(holds)
    assert verdict.holds
    assert verdict.failing_degree is None
    assert verdict.certificate == CERT_GENERIC_RANK_MAXIMAL


def test_sextic_without_wlp(wlp_sextic_pair):
    _, fails = wlp_sextic_pair
    assert h_vector(fails) == (1, 5, 7, 9, 9, 7, 5, 1)
    verdict = has_wlp(fails)
    assert not verdict.holds
    assert verdict.certificate == CERT_ALL_SPECIALIZATIONS_DEFICIENT


def test_sextic_third_hessian_vanishes(wlp_sextic_pair):
    _, fails = wlp_sextic_pair
    assert hessian(fails, 3).vanishes
    verdict = has_slp(fails, full=True)
    assert not verdict.holds
    assert verdict.failing_degree == 1
    assert verdict.vanishing_orders == (1, 2, 3)


def test_perazzo_forms_have_vanishing_first_hessian():
    for degree in (3, 4, 5, 6):
        for seed in (0, 1, 2):
            f = random_perazzo_form(degree, seed=seed).to_polynomial()
            assert hessian(f, 1).vanishes
            verdict = has_slp(f)
            assert not verdict.holds
            assert verdict.failing_degree == 1
            assert verdict.certificate == CERT_HESSIAN_VANISHES


def test_binary_forms_have_slp(uv):
    rng = random.Random(401)
    checked = 0
    while checked < 10:
        degree = rng.randint(2, 6)
        f = random_binary_form(degree, bound=6, seed=rng.randint(0, 10**6), vars=uv)
        if f.is_zero():
            continue
        verdict = has_slp(f)
        assert verdict.holds, f.render()
        assert verdict.certificate == CERT_HESSIAN_NONZERO
        checked += 1


def test_hessian_order_range(ikeda, uv):
    with pytest.raises(ValueError):
        hessian(ikeda, 0)
    with pytest.raises(ValueError):
        hessian(ikeda, ikeda.degree // 2 + 1)
    quadratic = random_binary_form(2, bound=3, seed=5, vars=uv)
    assert hessian(quadratic, 1).matrix.shape == (2, 2)


def test_mult_map_concrete_agrees_with_parameter_matrix(ikeda):
    rng = random.Random(402)
    dual = ikeda.vars.dual()
    n = len(ikeda.vars)
    unit = [tuple(1 if k == m else 0 for m in range(n)) for k in range(n)]
    for i in range(ikeda.degree):
        symbolic = mult_map_matrix(ikeda, i, None)
        assert isinstance(symbolic, PolyMatrix)
        coeffs = [Fraction(rng.randint(-5, 5)) for _ in range(n)]
        L = HomogeneousPoly(dual, 1, {unit[k]: coeffs[k] for k in range(n) if coeffs[k]})
        concrete = mult_map_matrix(ikeda, i, L)
        assert symbolic.evaluate(coeffs) == concrete


def test_mult_map_argument_validation(ikeda):
    with pytest.raises(ValueError):
        mult_map_matrix(ikeda, ikeda.degree)
    with pytest.raises(ValueError):
        mult_map_matrix(ikeda, -1)
    # L over the primal ring instead of the dual one is rejected.
    L_primal = HomogeneousPoly.variable(ikeda.vars, 0)
    with pytest.raises(ValueError):
        mult_map_matrix(ikeda, 1, L_primal)
    dual = ikeda.vars.dual()
    quadratic_op = HomogeneousPoly.monomial(dual, (2, 0, 0, 0))
    with pytest.raises(ValueError):
        mult_map_matrix(ikeda, 1, quadratic_op)


def test_check_lefschetz_element_shape_and_bounds(ikeda):
    dual = ikeda.vars.dual()
    n = len(ikeda.vars)
    L = HomogeneousPoly(
        dual, 1, {tuple(1 if k == m else 0 for m in range(n)): Fraction(1) for k in range(n)}
    )
    stages = check_lefschetz_element(ikeda, L)
    h = h_vector(ikeda)
    assert len(stages) == ikeda.degree
    for i, (got, target) in enumerate(stages):
        assert target == min(h[i], h[i + 1])
        assert 0 <= got <= target
    # The middle stage is deficient for every L, by the WLP failure above.
    assert stages[2][0] < stages[2][1]


def test_wlp_witness_certifies_when_present(wlp_sextic_pair):
    holds, _ = wlp_sextic_pair
    verdict = has_wlp(holds)
    assert verdict.holds
    if verdict.witness is not None:
        stages = check_lefschetz_element(holds, verdict.witness)
        assert all(got == target for got, target in stages)
        assert verdict.witness.vars == holds.vars.dual()
        assert verdict.witness.degree == 1


def test_wlp_seed_changes_attempts_not_verdict(wlp_sextic_pair):
    holds, fails = wlp_sextic_pair
    for seed in (0, 7, 23):
        assert has_wlp(holds, seed=seed).holds
        assert not has_wlp(fails, seed=seed).holds


_random_forms = st.builds(
    lambda d, seed, with_g: random_perazzo_form(d, seed=seed, with_g=with_g),
    st.integers(4, 7),
    st.integers(0, 10**6),
    st.booleans(),
)
_family_forms = st.builds(
    lambda build, d, g: build(d, g_coeffs=g),
    st.sampled_from([osculating_family, tangent_point_family, three_points_family]),
    st.integers(5, 7),
    st.tuples(*[st.integers(-3, 3)] * 3),
)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(pf=st.one_of(_random_forms, _family_forms), seed=st.integers(0, 50))
def test_wlp_middle_stage_matches_all_stage_scan(pf, seed):
    f = pf.to_polynomial()
    h = h_vector(f)
    failing = [
        i
        for i in range(f.degree)
        if generic_rank(mult_map_matrix(f, i, None)) < min(h[i], h[i + 1])
    ]
    verdict = has_wlp(f, seed=seed)
    assert verdict.holds == (not failing)
    assert verdict.failing_degree == (failing[0] + 1 if failing else None)
    if verdict.witness is not None:
        stages = check_lefschetz_element(f, verdict.witness)
        assert all(got == target for got, target in stages)


_odd_degree_forms = st.one_of(
    st.builds(
        lambda d, seed, with_g: random_perazzo_form(d, seed=seed, with_g=with_g),
        st.sampled_from([5, 7]),
        st.integers(0, 10**6),
        st.booleans(),
    ),
    st.builds(
        lambda build, d, g: build(d, g_coeffs=g),
        st.sampled_from([osculating_family, tangent_point_family, three_points_family]),
        st.sampled_from([5, 7]),
        st.tuples(*[st.integers(-3, 3)] * 3),
    ),
)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(pf=_odd_degree_forms)
def test_wlp_at_odd_degree_is_the_middle_hessian(pf):
    # For odd d and m = (d - 1) / 2, h_m = h_{m+1}, so by the Gorenstein
    # reduction WLP is the middle map A_m -> A_{m+1} being bijective; by the
    # mixed-Hessian pairing that map is the order-m Hessian of f.
    f = pf.to_polynomial()
    m = (f.degree - 1) // 2
    h = h_vector(f)
    assert h[m] == h[m + 1]
    assert has_wlp(f).holds == (not hessian(f, m).vanishes)


@pytest.mark.parametrize(
    "pf, holds",
    [(random_perazzo_form(7, seed=1000), False), (tangent_point_family(6), True)],
    ids=["maximal-h-d7", "tangent-point-d6"],
)
def test_has_wlp_builds_each_catalecticant_once(monkeypatch, pf, holds):
    # One verdict reads h, every random L and the symbolic rank from the same
    # catalecticants; h_vector's own ones are counted too.
    f = pf.to_polynomial()
    built = Counter()
    original = lefschetz.catalecticant

    def counting(g, t, *args, **kwargs):
        built[t] += 1
        return original(g, t, *args, **kwargs)

    monkeypatch.setattr(lefschetz, "catalecticant", counting)
    monkeypatch.setattr(inverse_systems, "catalecticant", counting)
    verdict = has_wlp(f)
    monkeypatch.undo()
    assert built and max(built.values()) == 1, dict(built)
    assert verdict.holds is holds
    h = h_vector(f)
    failing = [
        i
        for i in range(f.degree)
        if generic_rank(mult_map_matrix(f, i, None)) < min(h[i], h[i + 1])
    ]
    assert verdict.holds == (not failing)
    assert verdict.failing_degree == (failing[0] + 1 if failing else None)


def _counting_generic_rank(monkeypatch) -> list[int]:
    """Route has_wlp's symbolic rank through a recorder of its results."""
    ranks = []

    def recording(matrix):
        ranks.append(generic_rank(matrix))
        return ranks[-1]

    monkeypatch.setattr(lefschetz, "generic_rank", recording)
    return ranks


def test_shrunk_subspace_declines_on_skew_symmetric_pencil(monkeypatch):
    # span{[[0, a, b], [-a, 0, c], [-b, -c, 0]]}: every member has rank <= 2
    # (commutative rank 2), yet no subspace shrinks for all of them at once
    # (non-commutative rank 3).  The certificate must decline, and the stage
    # is decided by the rank over Q(a_0, a_1, a_2).
    entries = [
        [(0, 0, 0), (1, 0, 0), (0, 1, 0)],
        [(-1, 0, 0), (0, 0, 0), (0, 0, 1)],
        [(0, -1, 0), (0, 0, -1), (0, 0, 0)],
    ]
    pencil = lefschetz._StagePencil(3, 3, entries, (1, 1, 1))
    trials = [[3, 5, 7], [2, 11, 13], [17, 19, 23]]
    A = lefschetz._stage_matrix(pencil, trials[0])
    assert rank_int(A, 3) == 2
    assert lefschetz._shrunk_subspace(pencil, A) is None
    ranks = _counting_generic_rank(monkeypatch)
    assert lefschetz._settle_stage(pencil, 3, trials) == (False, None)
    assert ranks == [2]


@settings(max_examples=40, derandomize=True, deadline=None)
@given(pf=st.one_of(_random_forms, _family_forms), seed=st.integers(0, 50))
def test_shrunk_subspace_bound_is_the_generic_rank(pf, seed):
    # Wherever the second Wong sequence from a random member A stays in its
    # image, ncols - (dim U* - dim W*) bounds every member's rank; A reaches
    # that bound, so it is the rank over the function field.  Where A has
    # full rank that is immediate, so the symbolic rank runs on the rest.
    f = pf.to_polynomial()
    rng = random.Random(seed)
    for i in range(f.degree):
        pencil = lefschetz._stage_pencil(catalecticant(f, i), catalecticant(f, i + 1))
        A = lefschetz._stage_matrix(pencil, [rng.randint(1, 997) for _ in range(len(f.vars))])
        dims = lefschetz._shrunk_subspace(pencil, A)
        if dims is None:
            continue
        bound = pencil.ncols - (dims[0] - dims[1])
        assert bound == rank_int(A, pencil.ncols)
        if bound < min(len(A), pencil.ncols):
            assert bound == generic_rank(mult_map_matrix(f, i, None))


@pytest.mark.parametrize("d", range(5, 11))
def test_maximal_h_wlp_failure_is_proven_without_symbolic_rank(monkeypatch, d):
    # The paper: a Perazzo 3-fold with maximal h fails the WLP.  A shrunk
    # subspace settles every deficient stage, so no symbolic rank runs.
    f = random_perazzo_form(d, seed=1000).to_polynomial()
    assert h_vector(f).entries == max_hvector(d).entries
    ranks = _counting_generic_rank(monkeypatch)
    verdict = has_wlp(f)
    assert not verdict.holds
    assert verdict.certificate == CERT_ALL_SPECIALIZATIONS_DEFICIENT
    assert ranks == []
