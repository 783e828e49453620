"""Independent reference computations backing the test expectations.

Everything here goes through sympy or plain combinatorics, never through the
package's own linear algebra, so agreement is a genuine cross-check.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import reduce

import sympy
from sympy.polys.matrices import DomainMatrix


def sympy_matrix(rows) -> sympy.Matrix:
    return sympy.Matrix(
        [[sympy.Rational(x.numerator, x.denominator) for x in row] for row in rows]
    )


def _fraction(x) -> Fraction:
    return Fraction(int(x.p), int(x.q))


def sympy_rank(rows) -> int:
    return sympy_matrix(rows).rank()


def sympy_det(rows) -> Fraction:
    d = sympy_matrix(rows).det()
    return Fraction(int(d.p), int(d.q))


def sympy_nullity(rows, ncols: int) -> int:
    if not rows:
        return ncols
    return ncols - sympy_matrix(rows).rank()


def sympy_rref(rows) -> tuple[list[list[Fraction]], tuple[int, ...]]:
    red, pivots = sympy_matrix(rows).rref()
    return [[_fraction(x) for x in red.row(i)] for i in range(red.rows)], tuple(pivots)


def sympy_nullspace(rows) -> list[list[Fraction]]:
    return [[_fraction(x) for x in vec] for vec in sympy_matrix(rows).nullspace()]


def sympy_solve(rows, rhs) -> list[Fraction] | None:
    """The solution of rows * x = rhs with every free variable zero, or None."""
    target = sympy.Matrix([sympy.Rational(x.numerator, x.denominator) for x in rhs])
    try:
        sol, params = sympy_matrix(rows).gauss_jordan_solve(target)
    except ValueError:
        return None
    sol = sol.subs({p: 0 for p in params})
    return [_fraction(x) for x in sol]


def _sympy_poly_matrix(rows, nvars: int) -> DomainMatrix:
    """HomogeneousPoly entries as a DomainMatrix over QQ[z0..], read from
    their term maps only."""
    ring = sympy.QQ[sympy.symbols(f"z0:{nvars}")]
    data = [
        [
            ring.ring.from_dict(
                {e: sympy.QQ(c.numerator, c.denominator) for e, c in p.terms.items()}
            )
            for p in row
        ]
        for row in rows
    ]
    return DomainMatrix(data, (len(rows), len(rows[0])), ring)


def sympy_poly_det(rows, nvars: int) -> dict[tuple[int, ...], Fraction]:
    """Determinant of a square polynomial matrix, as exponents -> coefficient."""
    det = _sympy_poly_matrix(rows, nvars).det()
    return {e: Fraction(int(c.numerator), int(c.denominator)) for e, c in det.items()}


def sympy_poly_rank(rows, nvars: int) -> int:
    """Rank over the field of rational functions in the entries' variables
    (the pivots of sympy's fraction-free reduced row echelon form)."""
    _, _, pivots = _sympy_poly_matrix(rows, nvars).rref_den()
    return len(pivots)


_U, _V = sympy.symbols("U V")


def sympy_waring_rank(coeffs) -> int:
    """Sylvester's procedure on the descaled Hankel, entirely in sympy."""
    e = len(coeffs) - 1
    b = [sympy.Rational(c) / sympy.binomial(e, i) for i, c in enumerate(coeffs)]
    for r in range(1, e + 1):
        hankel = sympy.Matrix(e - r + 1, r + 1, lambda i, j: b[i + j])
        kernel = hankel.nullspace()
        if not kernel:
            continue
        forms = [
            sum(k[j] * _U ** (r - j) * _V**j for j in range(r + 1))
            for k in kernel
        ]
        g = reduce(sympy.gcd, forms)
        if sympy.Poly(g, _U, _V).total_degree() == 0:
            return r
        rep = sympy.gcd(sympy.diff(g, _U), sympy.diff(g, _V))
        if sympy.Poly(sympy.expand(rep), _U, _V).total_degree() == 0:
            return r
    raise AssertionError("Sylvester loop exhausted")


def sympy_border_rank(coeffs) -> int:
    e = len(coeffs) - 1
    b = [sympy.Rational(c) / sympy.binomial(e, i) for i, c in enumerate(coeffs)]
    for r in range(1, e + 1):
        hankel = sympy.Matrix(e - r + 1, r + 1, lambda i, j: b[i + j])
        if hankel.nullspace():
            return r
    raise AssertionError("border loop exhausted")


_GRID = [
    (1, 0),
    (0, 1),
    (1, 1),
    (1, -1),
    (2, 1),
    (1, 2),
    (2, -1),
    (1, -2),
    (3, 1),
    (1, 3),
    (3, -1),
    (1, -3),
    (3, 2),
    (2, 3),
]


def grid_decomposable(coeffs, r: int) -> bool:
    """Whether some r grid points give an exact power-sum decomposition.

    Certifies upper bounds only: a miss proves nothing about the true rank.
    """
    e = len(coeffs) - 1
    target = sympy.Matrix([sympy.Rational(c) for c in coeffs])
    for points in itertools.combinations(_GRID, r):
        cols = []
        for a, b in points:
            form = [
                sympy.binomial(e, i) * sympy.Integer(a) ** (e - i) * sympy.Integer(b) ** i
                for i in range(e + 1)
            ]
            # column = coefficients of (a u + b v)^e, highest u-power first
            cols.append(form)
        system = sympy.Matrix(e + 1, r, lambda i, j: cols[j][i])
        try:
            sol, params = system.gauss_jordan_solve(target)
        except ValueError:
            continue
        if not params:
            return True
        # a consistent underdetermined system still certifies the bound
        return True
    return False


def monomial_h_vector(exponents) -> tuple[int, ...]:
    """h-vector of S/Ann(f) for a monomial f, by divisor counting.

    The graded piece [A]_t is spanned by the monomial derivatives of f, so
    h_t counts exponent tuples (i_1, ..., i_n) with sum t and i_k <= a_k.
    """
    d = sum(exponents)
    h = [0] * (d + 1)
    ranges = [range(a + 1) for a in exponents]
    for combo in itertools.product(*ranges):
        h[sum(combo)] += 1
    return tuple(h)


def sympy_h_vector(f_expr, var_symbols) -> tuple[int, ...]:
    """Catalecticant ranks computed with sympy differentiation only."""
    poly = sympy.Poly(sympy.expand(f_expr), *var_symbols)
    d = poly.total_degree()
    n = len(var_symbols)

    def mons(t):
        out = []
        for combo in itertools.combinations_with_replacement(range(n), t):
            e = [0] * n
            for i in combo:
                e[i] += 1
            out.append(tuple(e))
        return out

    h = []
    for t in range(d + 1):
        rows = []
        row_mons = mons(d - t)
        for op in mons(t):
            img = f_expr
            for var, k in zip(var_symbols, op):
                img = sympy.diff(img, var, k)
            img_poly = sympy.Poly(sympy.expand(img), *var_symbols)
            rows.append([img_poly.coeff_monomial(m) for m in row_mons])
        h.append(sympy.Matrix(rows).rank() if rows else 0)
    return tuple(h)


def sympy_rational_roots(terms) -> dict[tuple[int, int], int] | None:
    """Projective rational roots of a binary form given as {(a, b): coeff},
    with multiplicity, from `sympy.Poly.factor_list`; None unless the form
    splits into rational linear factors.  Roots are primitive integer pairs
    with positive first nonzero coordinate."""
    expr = sum(
        sympy.Rational(c.numerator, c.denominator) * _U**a * _V**b
        for (a, b), c in terms.items()
    )
    _, factors = sympy.Poly(expr, _U, _V).factor_list()
    roots: dict[tuple[int, int], int] = {}
    for factor, mult in factors:
        if factor.total_degree() != 1:
            return None
        alpha = _fraction(sympy.Rational(factor.coeff_monomial(_U)))
        beta = _fraction(sympy.Rational(factor.coeff_monomial(_V)))
        den = math.lcm(alpha.denominator, beta.denominator)
        a, b = int(-beta * den), int(alpha * den)
        g = math.gcd(a, b)
        a, b = a // g, b // g
        if a < 0 or (a == 0 and b < 0):
            a, b = -a, -b
        roots[(a, b)] = roots.get((a, b), 0) + mult
    return roots


_S, _T = sympy.symbols("s t")


def sympy_intersection_divisor(rows) -> dict[tuple[int, int], Fraction]:
    """The gcd of the bordered 4x4 minors of [rows; s^(d-1-k) t^k], as
    {(i, j): coeff} for s^i t^j; defined up to a nonzero scalar."""
    d = len(rows[0])
    ring = sympy.QQ[_S, _T]
    entries = [[ring.convert(sympy.Rational(x.numerator, x.denominator)) for x in row]
               for row in rows]
    entries.append([ring.from_sympy(_S ** (d - 1 - k) * _T**k) for k in range(d)])
    divisor = ring.zero
    for quad in itertools.combinations(range(d), 4):
        minor = DomainMatrix([[row[k] for k in quad] for row in entries], (4, 4), ring)
        divisor = divisor.gcd(minor.det())
        if divisor and divisor.is_ground:
            break
    return {mon: Fraction(int(c.numerator), int(c.denominator))
            for mon, c in divisor.terms()}


def sympy_cubic_annihilator_dims(ps, g) -> tuple[int, int]:
    """Dimensions of the cubic operators in (d/du, d/dv) killing the binary
    forms ps, then ps and g, by sympy differentiation of their term maps."""
    u, v = sympy.symbols("u v")

    def rows(forms):
        out = []
        for p in forms:
            if not p.terms:
                continue
            poly = sympy.Poly.from_dict(
                {e: sympy.Rational(c.numerator, c.denominator) for e, c in p.terms.items()},
                u, v,
            )
            images = [poly.diff((u, a), (v, 3 - a)) for a in range(4)]
            for i in range(p.degree - 2):
                mono = (p.degree - 3 - i, i)
                out.append([img.coeff_monomial(mono) for img in images])
        return out

    def nullity(forms):
        matrix = rows(forms)
        return 4 - (sympy.Matrix(matrix).rank() if matrix else 0)

    return nullity(ps), nullity(list(ps) + [g])
