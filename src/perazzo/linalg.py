"""Exact dense linear algebra over Q and over polynomial rings.

`RationalMatrix` holds Fraction entries; rank, determinant and reduced row
echelon form (hence kernel, inverse and solve) go through the fraction-free
integer Bareiss kernel after clearing denominators row by row, which changes
neither rank nor row space and scales the determinant by a known factor.

`PolyMatrix` holds HomogeneousPoly entries over one variable set.
`generic_rank` is the rank over the fraction field K(parameters), computed by
the same fraction-free elimination with polynomial pivots and exact
polynomial division; no minor enumeration anywhere.  Pivots are chosen
deterministically: among candidate entries the one whose leading monomial is
graded-lex smallest, ties to the lowest row index.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from . import bareiss
from .errors import InternalError
from .poly import HomogeneousPoly, VariableSet

__all__ = [
    "RationalMatrix",
    "PolyMatrix",
    "generic_rank",
    "det_poly",
    "solve_linear",
]


def _lcm(a: int, b: int) -> int:
    return a // math.gcd(a, b) * b


class RationalMatrix:
    """Dense matrix of exact rationals."""

    __slots__ = ("rows", "nrows", "ncols")

    def __init__(self, rows: Sequence[Sequence[Fraction | int]], ncols: int | None = None):
        data = [[Fraction(x) for x in row] for row in rows]
        if data:
            width = len(data[0])
            if any(len(r) != width for r in data):
                raise ValueError("ragged rows")
        else:
            width = ncols or 0
        self.rows = data
        self.nrows = len(data)
        self.ncols = width

    @classmethod
    def identity(cls, n: int) -> "RationalMatrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, nrows: int, ncols: int) -> "RationalMatrix":
        return cls([[0] * ncols for _ in range(nrows)], ncols=ncols)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nrows, self.ncols)

    def __getitem__(self, key: tuple[int, int]) -> Fraction:
        return self.rows[key[0]][key[1]]

    def __eq__(self, other) -> bool:
        if not isinstance(other, RationalMatrix):
            return NotImplemented
        return self.shape == other.shape and self.rows == other.rows

    def __repr__(self) -> str:
        return f"RationalMatrix({self.nrows}x{self.ncols})"

    def transpose(self) -> "RationalMatrix":
        return RationalMatrix(
            [[self.rows[i][j] for i in range(self.nrows)] for j in range(self.ncols)],
            ncols=self.nrows,
        )

    def hstack(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.nrows != other.nrows:
            raise ValueError("row counts differ")
        return RationalMatrix(
            [self.rows[i] + other.rows[i] for i in range(self.nrows)],
            ncols=self.ncols + other.ncols,
        )

    def vstack(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.ncols != other.ncols:
            raise ValueError("column counts differ")
        return RationalMatrix(self.rows + other.rows, ncols=self.ncols)

    def matmul(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.ncols != other.nrows:
            raise ValueError("inner dimensions differ")
        out = []
        for i in range(self.nrows):
            row = []
            for j in range(other.ncols):
                row.append(
                    sum(
                        (self.rows[i][k] * other.rows[k][j] for k in range(self.ncols)),
                        Fraction(0),
                    )
                )
            out.append(row)
        return RationalMatrix(out, ncols=other.ncols)

    def apply_to_vector(self, vec: Sequence[Fraction | int]) -> list[Fraction]:
        if len(vec) != self.ncols:
            raise ValueError("vector length differs from column count")
        v = [Fraction(x) for x in vec]
        return [
            sum((r[k] * v[k] for k in range(self.ncols)), Fraction(0))
            for r in self.rows
        ]

    # -- integer reduction ---------------------------------------------------

    def _int_rows(self) -> tuple[list[list[int]], list[int]]:
        """Clear denominators row by row; returns (int rows, row factors)."""
        out = []
        factors = []
        for row in self.rows:
            den = 1
            for x in row:
                den = _lcm(den, x.denominator)
            out.append([int(x * den) for x in row])
            factors.append(den)
        return out, factors

    # -- core operations -------------------------------------------------------

    def rank(self) -> int:
        """Exact rank (zero rows and columns are stripped before elimination)."""
        int_rows, _ = self._int_rows()
        live_rows = [r for r in int_rows if any(r)]
        if not live_rows:
            return 0
        live_cols = [j for j in range(self.ncols) if any(r[j] for r in live_rows)]
        stripped = [[r[j] for j in live_cols] for r in live_rows]
        return bareiss.rank_int(stripped, len(live_cols))

    def det(self) -> Fraction:
        """Exact determinant of a square matrix."""
        if self.nrows != self.ncols:
            raise ValueError("determinant requires a square matrix")
        if self.nrows == 0:
            return Fraction(1)
        int_rows, factors = self._int_rows()
        if any(not any(r) for r in int_rows):
            return Fraction(0)
        d = bareiss.det_int(int_rows)
        scale = 1
        for f in factors:
            scale *= f
        return Fraction(d, scale)

    def kernel_basis(self) -> list[list[Fraction]]:
        """Basis of the right kernel, one primitive integer vector per free column.

        Deterministic: vectors are indexed by the free columns in increasing
        order, scaled content-free with positive first nonzero entry.
        """
        red, piv_cols = self.rref()
        piv_set = set(piv_cols)
        free_cols = [j for j in range(self.ncols) if j not in piv_set]
        basis = []
        for free in free_cols:
            x = [Fraction(0)] * self.ncols
            x[free] = Fraction(1)
            for i, pc in enumerate(piv_cols):
                x[pc] = -red.rows[i][free]
            basis.append(_primitive(x))
        return basis

    def rref(self) -> tuple["RationalMatrix", tuple[int, ...]]:
        """Reduced row echelon form and its pivot columns.

        Integer Bareiss echelon of the nonzero rows, then back-substitution
        over Q from the last pivot row up; zero rows end up at the bottom.
        """
        int_rows, _ = self._int_rows()
        live_rows = [r for r in int_rows if any(r)]
        ech, piv_cols, _ = bareiss.echelon_int(live_rows, self.ncols)
        red = [[0] * self.ncols for _ in range(self.nrows)]
        for i in range(len(piv_cols) - 1, -1, -1):
            x = ech[i]
            for k in range(i + 1, len(piv_cols)):
                c = x[piv_cols[k]]
                if c:
                    x = [a - c * b if b else a for a, b in zip(x, red[k])]
            piv = x[piv_cols[i]]
            red[i] = [Fraction(a, piv) for a in x]
        return RationalMatrix(red, ncols=self.ncols), tuple(piv_cols)

    def inverse(self) -> "RationalMatrix":
        if self.nrows != self.ncols:
            raise ValueError("inverse requires a square matrix")
        n = self.nrows
        aug = self.hstack(RationalMatrix.identity(n))
        red, piv = aug.rref()
        if len(piv) < n or any(p >= n for p in piv):
            raise ValueError("matrix is singular")
        return RationalMatrix([row[n:] for row in red.rows], ncols=n)


def solve_linear(
    m: RationalMatrix, vec: Sequence[Fraction | int]
) -> list[Fraction] | None:
    """One exact solution of m x = vec, or None when inconsistent.

    Free variables are set to zero, so the result is the unique solution
    exactly when the columns of m are linearly independent.
    """
    if len(vec) != m.nrows:
        raise ValueError("right-hand side length differs from row count")
    rhs = RationalMatrix([[Fraction(x)] for x in vec], ncols=1)
    red, piv = m.hstack(rhs).rref()
    if any(p == m.ncols for p in piv):
        return None
    x = [Fraction(0)] * m.ncols
    for i, p in enumerate(piv):
        x[p] = red.rows[i][m.ncols]
    return x


def _primitive(vec: list[Fraction]) -> list[Fraction]:
    """Scale to a coprime integer vector whose first nonzero entry is positive."""
    den = 1
    for x in vec:
        den = _lcm(den, x.denominator)
    ints = [int(x * den) for x in vec]
    g = 0
    for x in ints:
        g = math.gcd(g, abs(x))
    if g == 0:
        return vec
    lead = next(x for x in ints if x)
    if lead < 0:
        g = -g
    return [Fraction(x, g) for x in ints]


# -- polynomial matrices -----------------------------------------------------

_IntPoly = dict  # exponent tuple -> int coefficient


def _p_lead(p: _IntPoly) -> tuple[int, ...]:
    return max(p, key=lambda e: (sum(e), e))


def _p_mul(a: _IntPoly, b: _IntPoly) -> _IntPoly:
    if not a or not b:
        return {}
    out: _IntPoly = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            s = out.get(e, 0) + c1 * c2
            if s:
                out[e] = s
            else:
                del out[e]
    return out


def _p_sub(a: _IntPoly, b: _IntPoly) -> _IntPoly:
    out = dict(a)
    for e, c in b.items():
        s = out.get(e, 0) - c
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def _p_divexact(num: _IntPoly, den: _IntPoly) -> _IntPoly:
    """Exact division in Z[vars]; raises InternalError if not exact."""
    if not den:
        raise ZeroDivisionError("polynomial division by zero")
    if not num:
        return {}
    de = _p_lead(den)
    dc = den[de]
    q: _IntPoly = {}
    r = dict(num)
    while r:
        re = _p_lead(r)
        rc = r[re]
        exps = tuple(a - b for a, b in zip(re, de))
        if any(e < 0 for e in exps) or rc % dc:
            raise InternalError("inexact polynomial division in elimination")
        qc = rc // dc
        q[exps] = qc
        for e2, c2 in den.items():
            k = tuple(a + b for a, b in zip(exps, e2))
            s = r.get(k, 0) - qc * c2
            if s:
                r[k] = s
            else:
                r.pop(k, None)
    return q


def _poly_echelon(
    rows: list[list[_IntPoly]], ncols: int
) -> tuple[list[list[_IntPoly]], list[int], int]:
    """Fraction-free Bareiss elimination over Z[vars]."""
    m = [list(r) for r in rows]
    nrows = len(m)
    piv_cols: list[int] = []
    sign = 1
    prev: _IntPoly | None = None
    r = 0
    for c in range(ncols):
        cand = [i for i in range(r, nrows) if m[i][c]]
        if not cand:
            continue
        p = min(cand, key=lambda i: ((sum(e := _p_lead(m[i][c])), e), i))
        if p != r:
            m[r], m[p] = m[p], m[r]
            sign = -sign
        piv = m[r][c]
        row_r = m[r]
        for i in range(r + 1, nrows):
            row_i = m[i]
            mic = row_i[c]
            for j in range(c + 1, ncols):
                t = _p_sub(_p_mul(piv, row_i[j]), _p_mul(mic, row_r[j]))
                row_i[j] = _p_divexact(t, prev) if prev is not None else t
            row_i[c] = {}
        prev = piv
        piv_cols.append(c)
        r += 1
        if r == nrows:
            break
    return m, piv_cols, sign


class PolyMatrix:
    """Dense matrix of homogeneous polynomials over one variable set."""

    __slots__ = ("vars", "rows", "nrows", "ncols")

    def __init__(
        self,
        vars: VariableSet,
        rows: Sequence[Sequence[HomogeneousPoly]],
        ncols: int | None = None,
    ):
        data = [list(row) for row in rows]
        if data:
            width = len(data[0])
            if any(len(r) != width for r in data):
                raise ValueError("ragged rows")
        else:
            width = ncols or 0
        for row in data:
            for p in row:
                if p.vars != vars:
                    raise ValueError("entry over a different variable set")
        self.vars = vars
        self.rows = data
        self.nrows = len(data)
        self.ncols = width

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nrows, self.ncols)

    def __getitem__(self, key: tuple[int, int]) -> HomogeneousPoly:
        return self.rows[key[0]][key[1]]

    def __repr__(self) -> str:
        return f"PolyMatrix({self.nrows}x{self.ncols} over {self.vars!r})"

    def evaluate(self, values: Sequence[Fraction | int]) -> RationalMatrix:
        """Specialize every entry at a rational point."""
        return RationalMatrix(
            [[p.evaluate(values) for p in row] for row in self.rows],
            ncols=self.ncols,
        )

    def _int_rows(self) -> tuple[list[list[_IntPoly]], list[int]]:
        """Clear coefficient denominators row by row."""
        out = []
        factors = []
        for row in self.rows:
            den = 1
            for p in row:
                for c in p.terms.values():
                    den = _lcm(den, c.denominator)
            out.append(
                [{e: int(c * den) for e, c in p.terms.items()} for p in row]
            )
            factors.append(den)
        return out, factors


def generic_rank(m: PolyMatrix) -> int:
    """Rank over the rational function field of the entries' variables."""
    int_rows, _ = m._int_rows()
    live_rows = [r for r in int_rows if any(r)]
    if not live_rows:
        return 0
    live_cols = [j for j in range(m.ncols) if any(r[j] for r in live_rows)]
    stripped = [[r[j] for j in live_cols] for r in live_rows]
    _, piv_cols, _ = _poly_echelon(stripped, len(live_cols))
    return len(piv_cols)


def det_poly(m: PolyMatrix) -> HomogeneousPoly:
    """Exact determinant by fraction-free elimination (never minor expansion)."""
    if m.nrows != m.ncols:
        raise ValueError("determinant requires a square matrix")
    n = m.nrows

    def zero_det() -> HomogeneousPoly:
        degrees = {p.degree for row in m.rows for p in row if not p.is_zero()}
        tag = n * degrees.pop() if len(degrees) == 1 else 0
        return HomogeneousPoly.zero(m.vars, tag)

    if n == 0:
        return HomogeneousPoly(m.vars, 0, {(0,) * len(m.vars): 1})
    int_rows, factors = m._int_rows()
    if any(not any(r) for r in int_rows):
        return zero_det()
    ech, piv_cols, sign = _poly_echelon(int_rows, n)
    if len(piv_cols) < n:
        return zero_det()
    last = ech[n - 1][n - 1]
    scale = 1
    for f in factors:
        scale *= f
    degree = sum(_p_lead(last))
    for e in last:
        if sum(e) != degree:
            raise ValueError("determinant is not homogeneous")
    return HomogeneousPoly(
        m.vars, degree, {e: Fraction(sign * c, scale) for e, c in last.items()}
    )
