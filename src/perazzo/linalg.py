"""Exact dense linear algebra over Q and over polynomial rings.

`RationalMatrix` holds Fraction entries; rank and determinant go through
the fraction-free Bareiss kernel `bareiss.echelon_int`, and the reduced row
echelon form (hence kernel, inverse and solve) through its reduced variant
`bareiss.reduce_int`, after clearing denominators row by row, which changes
neither rank nor row space and scales the determinant by a known factor.

`live_int_rows` turns a family of sparse rational column vectors (term maps,
say) into the integer rows of their nonzero support, one common denominator
cleared, for callers that never need the dense matrix.

`PolyMatrix` holds HomogeneousPoly entries over one variable set.
`generic_rank` (the rank over the fraction field K(parameters)) and
`det_poly` clear coefficient denominators the same way and run the same
kernel over Z[vars], whose exact division is polynomial division; no minor
enumeration anywhere.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Hashable, Mapping, Sequence

from . import bareiss
from .errors import InternalError
from .poly import HomogeneousPoly, VariableSet

__all__ = [
    "RationalMatrix",
    "PolyMatrix",
    "generic_rank",
    "det_poly",
    "solve_linear",
    "live_int_rows",
]


class RationalMatrix:
    """Dense matrix of exact rationals."""

    __slots__ = ("rows", "nrows", "ncols")

    def __init__(self, rows: Sequence[Sequence[Fraction | int]], ncols: int | None = None):
        data = [
            [x if isinstance(x, Fraction) else Fraction(x) for x in row]
            for row in rows
        ]
        if data:
            width = len(data[0])
            if any(len(r) != width for r in data):
                raise ValueError("ragged rows")
        else:
            width = ncols or 0
        self.rows = data
        self.nrows = len(data)
        self.ncols = width

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
            den = math.lcm(*(x.denominator for x in row))
            out.append([x.numerator * (den // x.denominator) for x in row])
            factors.append(den)
        return out, factors

    # -- core operations -------------------------------------------------------

    def rank(self) -> int:
        """Exact rank (zero rows and columns are stripped before elimination)."""
        return _stripped_rank(self._int_rows()[0], self.ncols)

    def det(self) -> Fraction:
        """Exact determinant of a square matrix."""
        if self.nrows != self.ncols:
            raise ValueError("determinant requires a square matrix")
        if self.nrows == 0:
            return Fraction(1)
        int_rows, factors = self._int_rows()
        if any(not any(r) for r in int_rows):
            return Fraction(0)
        return Fraction(bareiss.det_int(int_rows), math.prod(factors))

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

        Fraction-free reduction of the nonzero integer rows
        (`bareiss.reduce_int`), then one division by the common pivot; zero
        rows end up at the bottom.
        """
        int_rows, _ = self._int_rows()
        ech, piv_cols = bareiss.reduce_int([r for r in int_rows if any(r)], self.ncols)
        rank = len(piv_cols)
        delta = ech[rank - 1][piv_cols[-1]] if rank else 1
        red = [[Fraction(a, delta) for a in ech[i]] for i in range(rank)]
        red += [[Fraction(0)] * self.ncols for _ in range(self.nrows - rank)]
        return RationalMatrix(red, ncols=self.ncols), tuple(piv_cols)

    def inverse(self) -> "RationalMatrix":
        if self.nrows != self.ncols:
            raise ValueError("inverse requires a square matrix")
        n = self.nrows
        identity = RationalMatrix(
            [[int(i == j) for j in range(n)] for i in range(n)], ncols=n
        )
        red, piv = self.hstack(identity).rref()
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


def live_int_rows(
    columns: Sequence[Mapping[Hashable, Fraction]],
) -> tuple[list, list[list[int]]]:
    """The nonzero rows of the matrix whose j-th column is `columns[j]`.

    Each column maps row keys to nonzero Fractions.  Returns the keys that
    occur in some column, in decreasing order (graded-lex order for exponent
    tuples of one degree), and the integer rows at those keys, of width
    len(columns), scaled by the columns' one common denominator; neither rank
    nor pivot columns change.
    """
    den = math.lcm(*(c.denominator for col in columns for c in col.values()))
    keys = sorted({k for col in columns for k in col}, reverse=True)
    index = {k: i for i, k in enumerate(keys)}
    rows = [[0] * len(columns) for _ in keys]
    for j, col in enumerate(columns):
        for k, c in col.items():
            rows[index[k]][j] = c.numerator * (den // c.denominator)
    return keys, rows


def _stripped_rank(rows: list[list], ncols: int) -> int:
    """Rank of an integer or Z[vars] matrix; zero rows and columns are
    stripped before elimination."""
    live_rows = [r for r in rows if any(r)]
    if not live_rows:
        return 0
    live_cols = [j for j in range(ncols) if any(r[j] for r in live_rows)]
    stripped = [[r[j] for j in live_cols] for r in live_rows]
    return bareiss.rank_int(stripped, len(live_cols))


def _primitive(vec: list[Fraction]) -> list[Fraction]:
    """Scale to a coprime integer vector whose first nonzero entry is positive."""
    den = math.lcm(*(x.denominator for x in vec))
    ints = [x.numerator * (den // x.denominator) for x in vec]
    g = math.gcd(*ints)
    if g == 0:
        return vec
    lead = next(x for x in ints if x)
    if lead < 0:
        g = -g
    return [Fraction(x, g) for x in ints]


# -- polynomial matrices -----------------------------------------------------


def _p_lead(p: dict) -> tuple[int, ...]:
    return max(p, key=lambda e: (sum(e), e))


class _IntPoly(dict):
    """Polynomial in Z[vars] as exponent tuple -> nonzero int.

    A ring element for `bareiss.echelon_int`: `*`, `-`, exact `//` and
    truth as "nonzero"; `// 1` (the kernel's first divisor) is the identity.
    """

    __slots__ = ()

    def __mul__(self, other: "_IntPoly") -> "_IntPoly":
        out = _IntPoly()
        for e1, c1 in self.items():
            for e2, c2 in other.items():
                e = tuple(x + y for x, y in zip(e1, e2))
                s = out.get(e, 0) + c1 * c2
                if s:
                    out[e] = s
                else:
                    del out[e]
        return out

    def __sub__(self, other: "_IntPoly") -> "_IntPoly":
        out = _IntPoly(self)
        for e, c in other.items():
            s = out.get(e, 0) - c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return out

    def __floordiv__(self, den: "_IntPoly | int") -> "_IntPoly":
        """Exact division in Z[vars]; raises InternalError if not exact."""
        if den == 1:
            return self
        if not den:
            raise ZeroDivisionError("polynomial division by zero")
        de = _p_lead(den)
        dc = den[de]
        q = _IntPoly()
        r = dict(self)
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
            den = math.lcm(*(c.denominator for p in row for c in p.terms.values()))
            out.append(
                [
                    _IntPoly(
                        (e, c.numerator * (den // c.denominator))
                        for e, c in p.terms.items()
                    )
                    for p in row
                ]
            )
            factors.append(den)
        return out, factors


def _sparsest_first(
    rows: list[list[_IntPoly]],
) -> tuple[list[list[_IntPoly]], int]:
    """Rows in increasing order of their term count, and that permutation's sign.

    The kernel pivots on the first nonzero entry of a column; a dense pivot
    row makes every later minor dense (Hessians in the reversed greedy basis
    eliminated 90 to 250 times slower), so sparse rows go first.
    """
    order = sorted(range(len(rows)), key=lambda i: sum(map(len, rows[i])))
    inversions = sum(a > b for k, a in enumerate(order) for b in order[k + 1:])
    return [rows[i] for i in order], -1 if inversions % 2 else 1


def generic_rank(m: PolyMatrix) -> int:
    """Rank over the rational function field of the entries' variables."""
    rows, _ = _sparsest_first(m._int_rows()[0])
    return _stripped_rank(rows, m.ncols)


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
    rows, order_sign = _sparsest_first(int_rows)
    ech, piv_cols, sign = bareiss.echelon_int(rows, n)
    if len(piv_cols) < n:
        return zero_det()
    last = ech[n - 1][n - 1]
    sign *= order_sign
    scale = math.prod(factors)
    degree = sum(_p_lead(last))
    for e in last:
        if sum(e) != degree:
            raise ValueError("determinant is not homogeneous")
    return HomogeneousPoly(
        m.vars, degree, {e: Fraction(sign * c, scale) for e, c in last.items()}
    )
