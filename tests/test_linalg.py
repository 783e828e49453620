"""Exact linear algebra: random cross-checks against sympy."""

import random
from fractions import Fraction

import pytest

from perazzo import _bareiss_py
from perazzo import bareiss
from perazzo.linalg import PolyMatrix, RationalMatrix, det_poly, generic_rank, solve_linear
from perazzo.poly import HomogeneousPoly, VariableSet, monomials, random_binary_form

from oracles import (
    sympy_det,
    sympy_nullity,
    sympy_nullspace,
    sympy_poly_det,
    sympy_poly_rank,
    sympy_rank,
    sympy_rref,
    sympy_solve,
)


def random_rational_matrix(rng: random.Random, nrows: int, ncols: int) -> RationalMatrix:
    # Mix of integers and fractions, with a bias toward zeros so ranks vary.
    def entry() -> Fraction:
        roll = rng.random()
        if roll < 0.35:
            return Fraction(0)
        if roll < 0.75:
            return Fraction(rng.randint(-9, 9))
        return Fraction(rng.randint(-9, 9), rng.randint(1, 7))

    return RationalMatrix(
        [[entry() for _ in range(ncols)] for _ in range(nrows)], ncols=ncols
    )


def test_rank_matches_sympy_on_random_matrices():
    rng = random.Random(101)
    for _ in range(60):
        nrows = rng.randint(1, 7)
        ncols = rng.randint(1, 7)
        m = random_rational_matrix(rng, nrows, ncols)
        assert m.rank() == sympy_rank(m.rows)


def test_rank_handles_interleaved_zero_rows_and_columns():
    rng = random.Random(102)
    for _ in range(30):
        core = random_rational_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
        rows = []
        for row in core.rows:
            padded = []
            for x in row:
                padded.append(x)
                padded.append(Fraction(0))
            rows.append(padded)
            rows.append([Fraction(0)] * len(padded))
        m = RationalMatrix(rows, ncols=2 * core.ncols)
        assert m.rank() == core.rank() == sympy_rank(rows)


def test_det_matches_sympy_on_random_square_matrices():
    rng = random.Random(103)
    for _ in range(60):
        n = rng.randint(1, 6)
        m = random_rational_matrix(rng, n, n)
        assert m.det() == sympy_det(m.rows)


def test_det_structured_values():
    identity = RationalMatrix([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    assert identity.det() == 1
    assert RationalMatrix([[0, 0, 0], [0, 0, 0], [0, 0, 0]]).det() == 0
    hilbert = RationalMatrix(
        [[Fraction(1, i + j + 1) for j in range(3)] for i in range(3)]
    )
    assert hilbert.det() == Fraction(1, 2160)
    swapped = RationalMatrix([[0, 1], [1, 0]])
    assert swapped.det() == -1


def test_kernel_basis_properties():
    rng = random.Random(104)
    for _ in range(40):
        m = random_rational_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
        basis = m.kernel_basis()
        assert len(basis) == m.ncols - m.rank() == sympy_nullity(m.rows, m.ncols)
        for vec in basis:
            assert len(vec) == m.ncols
            assert all(x == 0 for x in m.apply_to_vector(vec))
            nonzero = [x for x in vec if x]
            assert nonzero, "kernel vectors are nonzero"
            assert nonzero[0] > 0
            assert all(x.denominator == 1 for x in vec)
            content = 0
            for x in nonzero:
                content = gcd_int(content, abs(int(x)))
            assert content == 1


def gcd_int(a: int, b: int) -> int:
    while b:
        a, b = b, a % b
    return a


def test_kernel_of_full_rank_square_matrix_is_empty():
    m = RationalMatrix([[2, 1], [1, 1]])
    assert m.kernel_basis() == []


def test_kernel_of_zero_matrix_is_standard_basis():
    m = RationalMatrix([[0, 0, 0]], ncols=3)
    basis = m.kernel_basis()
    assert basis == [
        [1, 0, 0],
        [0, 1, 0],
        [0, 0, 1],
    ]


def test_rref_reproduces_known_form():
    m = RationalMatrix([[1, 2, 3], [2, 4, 7], [1, 2, 4]])
    red, piv = m.rref()
    assert piv == (0, 2)
    assert red.rows == [
        [Fraction(1), Fraction(2), Fraction(0)],
        [Fraction(0), Fraction(0), Fraction(1)],
        [Fraction(0), Fraction(0), Fraction(0)],
    ]


def rank_deficient_matrix(rng: random.Random, nrows: int, ncols: int) -> RationalMatrix:
    # Random rows, then some replaced by combinations of others or zeroed.
    rows = random_rational_matrix(rng, nrows, ncols).rows
    for i in range(nrows):
        roll = rng.random()
        if roll < 0.2:
            rows[i] = [Fraction(0)] * ncols
        elif roll < 0.45 and i >= 2:
            a, b = rng.sample(range(i), 2)
            s, t = Fraction(rng.randint(-3, 3), rng.randint(1, 3)), rng.randint(-2, 2)
            rows[i] = [s * x + t * y for x, y in zip(rows[a], rows[b])]
    return RationalMatrix(rows, ncols=ncols)


def primitive(vec: list[Fraction]) -> list[Fraction]:
    # The scaling kernel_basis promises: coprime integers, first nonzero positive.
    den = 1
    for x in vec:
        den = den * x.denominator // gcd_int(den, x.denominator)
    ints = [int(x * den) for x in vec]
    g = 0
    for x in ints:
        g = gcd_int(g, abs(x))
    if next(x for x in ints if x) < 0:
        g = -g
    return [Fraction(x, g) for x in ints]


def test_rref_kernel_and_solve_match_sympy():
    rng = random.Random(111)
    shapes = [
        lambda: (rng.randint(5, 8), rng.randint(1, 4)),  # tall
        lambda: (rng.randint(1, 4), rng.randint(5, 8)),  # wide
        lambda: (1, rng.randint(1, 8)),
        lambda: (rng.randint(1, 8), 1),
        lambda: (rng.randint(2, 6),) * 2,
    ]
    deficient = inconsistent = 0
    for trial in range(150):
        nrows, ncols = shapes[trial % len(shapes)]()
        m = rank_deficient_matrix(rng, nrows, ncols)
        red, piv = m.rref()
        assert (red.rows, piv) == sympy_rref(m.rows)
        deficient += len(piv) < min(nrows, ncols)
        assert m.kernel_basis() == [primitive(v) for v in sympy_nullspace(m.rows)]
        consistent = m.apply_to_vector([Fraction(rng.randint(-5, 5)) for _ in range(ncols)])
        arbitrary = [Fraction(rng.randint(-5, 5)) for _ in range(nrows)]
        for rhs in (consistent, arbitrary):
            expected = sympy_solve(m.rows, rhs)
            inconsistent += expected is None
            assert solve_linear(m, rhs) == expected
    assert deficient > 20 and inconsistent > 20


def test_inverse_round_trip_and_singular_rejection():
    rng = random.Random(105)
    built = 0
    while built < 15:
        n = rng.randint(1, 5)
        m = random_rational_matrix(rng, n, n)
        if m.rank() < n:
            with pytest.raises(ValueError):
                m.inverse()
            continue
        columns = m.inverse().transpose().rows
        assert [m.apply_to_vector(c) for c in columns] == [
            [int(i == j) for i in range(n)] for j in range(n)
        ]
        built += 1
    with pytest.raises(ValueError):
        RationalMatrix([[1, 2, 3]], ncols=3).inverse()


def test_solve_linear_consistent_and_inconsistent():
    rng = random.Random(106)
    for _ in range(30):
        m = random_rational_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        target = [Fraction(rng.randint(-5, 5)) for _ in range(m.ncols)]
        rhs = m.apply_to_vector(target)
        x = solve_linear(m, rhs)
        assert x is not None
        assert m.apply_to_vector(x) == rhs
    sysm = RationalMatrix([[1, 1], [1, 1]])
    assert solve_linear(sysm, [1, 2]) is None
    with pytest.raises(ValueError):
        solve_linear(sysm, [1, 2, 3])


def test_constructor_rejects_ragged_rows():
    with pytest.raises(ValueError):
        RationalMatrix([[1, 2], [3]])


# The integer kernels, driven directly on seeded integer matrices.


def test_integer_kernels_match_sympy():
    rng = random.Random(107)
    for _ in range(50):
        nrows = rng.randint(1, 7)
        ncols = rng.randint(1, 7)
        rows = [
            [rng.randint(-9, 9) if rng.random() > 0.3 else 0 for _ in range(ncols)]
            for _ in range(nrows)
        ]
        _, piv, _ = bareiss.echelon_int([list(r) for r in rows], ncols)
        assert tuple(piv) == sympy_rref(rows)[1]
        assert bareiss.rank_int([list(r) for r in rows], ncols) == sympy_rank(rows)
        if nrows == ncols:
            assert bareiss.det_int([list(r) for r in rows]) == sympy_det(rows)


def test_reduce_int_matches_sympy_rref_and_carries_columns():
    rng = random.Random(108)
    for _ in range(60):
        nrows, ncols, carried = rng.randint(1, 7), rng.randint(1, 7), rng.randint(0, 3)
        basis = [
            [rng.randint(-9, 9) if rng.random() > 0.3 else 0 for _ in range(ncols + carried)]
            for _ in range(rng.randint(1, nrows))
        ]
        rows = [
            [sum(rng.randint(-2, 2) * b[j] for b in basis) for j in range(ncols + carried)]
            for _ in range(nrows)
        ]
        red, piv = bareiss.reduce_int([list(r) for r in rows], ncols)
        expected, expected_piv = sympy_rref([r[:ncols] for r in rows])
        assert tuple(piv) == expected_piv
        rank = len(piv)
        delta = red[rank - 1][piv[-1]] if rank else 1
        assert [[Fraction(x, delta) for x in r[:ncols]] for r in red[:rank]] == expected[:rank]
        assert not any(x for r in red[rank:] for x in r[:ncols])
        # The carried columns went through the same invertible row operations.
        assert sympy_rank(red) == sympy_rank(rows) == sympy_rank(red + rows)


def test_backend_name_is_declared():
    assert bareiss.BACKEND == "python"


def test_pure_backend_known_values():
    assert _bareiss_py.det_int([[2, 0], [0, 3]]) == 6
    assert _bareiss_py.det_int([[0, 1], [1, 0]]) == -1
    assert _bareiss_py.rank_int([[1, 2], [2, 4]], 2) == 1


# Polynomial matrices.


def uv_vars() -> VariableSet:
    return VariableSet(("u", "v"))


def random_poly_matrix(
    rng: random.Random, vars: VariableSet, n: int, degree: int
) -> PolyMatrix:
    rows = []
    for _ in range(n):
        row = []
        for _ in range(n):
            if rng.random() < 0.25:
                row.append(HomogeneousPoly.zero(vars, degree))
            else:
                row.append(random_binary_form(degree, bound=4, seed=rng.randint(0, 10**6), vars=vars))
        rows.append(row)
    return PolyMatrix(vars, rows)


def test_det_poly_is_homogeneous_of_expected_degree():
    rng = random.Random(108)
    vars = uv_vars()
    for _ in range(12):
        n = rng.randint(1, 3)
        degree = rng.randint(1, 3)
        m = random_poly_matrix(rng, vars, n, degree)
        d = det_poly(m)
        assert d.degree == n * degree
        for exps in d.terms:
            assert sum(exps) == n * degree


def test_det_poly_commutes_with_evaluation():
    rng = random.Random(109)
    vars = uv_vars()
    for _ in range(15):
        n = rng.randint(1, 3)
        degree = rng.randint(1, 2)
        m = random_poly_matrix(rng, vars, n, degree)
        d = det_poly(m)
        point = [Fraction(rng.randint(-4, 4)), Fraction(rng.randint(-4, 4))]
        assert d.evaluate(point) == m.evaluate(point).det()


def test_det_poly_known_two_by_two():
    vars = uv_vars()
    u = HomogeneousPoly.variable(vars, 0)
    v = HomogeneousPoly.variable(vars, 1)
    m = PolyMatrix(vars, [[u, v], [v, u]])
    assert det_poly(m) == u * u - v * v


def test_generic_rank_vs_random_evaluation():
    # Rank at a random point never exceeds the generic rank, and some point
    # in a small grid attains it.
    rng = random.Random(110)
    vars = uv_vars()
    for _ in range(10):
        n = rng.randint(1, 3)
        m = random_poly_matrix(rng, vars, n, rng.randint(1, 2))
        g = generic_rank(m)
        best = 0
        for a in range(-3, 4):
            for b in range(-3, 4):
                r = m.evaluate([Fraction(a), Fraction(b)]).rank()
                assert r <= g
                best = max(best, r)
        assert best == g


def test_generic_rank_of_rank_one_outer_product():
    vars = uv_vars()
    u = HomogeneousPoly.variable(vars, 0)
    v = HomogeneousPoly.variable(vars, 1)
    outer = PolyMatrix(vars, [[u * u, u * v], [u * v, v * v]])
    assert generic_rank(outer) == 1
    full = PolyMatrix(vars, [[u * u, u * v], [u * v, u * u]])
    assert generic_rank(full) == 2


def sparse_form(rng: random.Random, vars: VariableSet, degree: int) -> HomogeneousPoly:
    mons = monomials(len(vars), degree)
    chosen = rng.sample(mons, min(3, len(mons)))
    return HomogeneousPoly(
        vars, degree, {e: Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for e in chosen}
    )


def test_det_poly_and_generic_rank_match_sympy():
    # Shapes of the Lefschetz matrices: 3 to 5 variables, zero rows and
    # columns, and products (n x k)(k x n) of linear forms by integers, whose
    # rank is at most k < n, like the symbolic multiplication maps.
    rng = random.Random(112)
    deficient = with_zero_line = 0
    for trial in range(60):
        vars = VariableSet(tuple(f"a{i}" for i in range(rng.randint(3, 5))))
        n = rng.randint(1, 6)
        if trial % 2 and n > 1:
            k = rng.randint(1, n - 1)
            left = [[sparse_form(rng, vars, 1) for _ in range(k)] for _ in range(n)]
            right = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(k)]
            rows = [
                [
                    sum(
                        (left[i][l].scale(right[l][j]) for l in range(k)),
                        HomogeneousPoly.zero(vars, 1),
                    )
                    for j in range(n)
                ]
                for i in range(n)
            ]
        else:
            degree = rng.randint(1, 2) if n <= 4 else 1
            rows = [
                [
                    sparse_form(rng, vars, degree)
                    if rng.random() > 0.25
                    else HomogeneousPoly.zero(vars, degree)
                    for _ in range(n)
                ]
                for _ in range(n)
            ]
        zero = HomogeneousPoly.zero(vars, rows[0][0].degree)
        if rng.random() < 0.3:
            rows[rng.randrange(n)] = [zero] * n
        if rng.random() < 0.3:
            j = rng.randrange(n)
            for row in rows:
                row[j] = zero
        m = PolyMatrix(vars, rows)
        rank = generic_rank(m)
        assert rank == sympy_poly_rank(m.rows, len(vars))
        assert det_poly(m).terms == sympy_poly_det(m.rows, len(vars))
        deficient += rank < n
        with_zero_line += any(
            all(p.is_zero() for p in line) for line in (*rows, *zip(*rows))
        )
    assert deficient > 15 and with_zero_line > 10


def test_poly_matrix_rejects_foreign_entries():
    vars = uv_vars()
    other = VariableSet(("s", "t"))
    p = HomogeneousPoly.variable(other, 0)
    with pytest.raises(ValueError):
        PolyMatrix(vars, [[p]])


def test_monomial_order_helper_matches_matrix_usage():
    # monomials() drives row and column labels everywhere; pin its contract.
    labels = monomials(2, 3)
    assert labels[0] == (3, 0)
    assert labels[-1] == (0, 3)
    assert len(labels) == 4
