"""Fraction-free elimination kernels over Z, or over any integral domain.

Bareiss one-step elimination: every intermediate entry is a minor of the
input, so the running division by the previous pivot is exact.  The update
must touch every row below the pivot (zero pivot-column entries included) or
that exactness is lost.  Matrices are lists of lists of Python ints, or of
exact-division ring elements: values with `*`, `-`, an exact `//` for which
`x // 1` is x, and truth meaning nonzero (`linalg` passes polynomials over
Z).  The pivot is the first nonzero entry of its column.  Callers clear
denominators.
"""

from __future__ import annotations

__all__ = ["echelon_int", "rank_int", "det_int"]


def echelon_int(rows, ncols):
    """Row-echelon form. Returns (matrix, pivot_columns, sign)."""
    m = [list(r) for r in rows]
    nrows = len(m)
    piv_cols = []
    sign = 1
    prev = 1
    r = 0
    for c in range(ncols):
        p = -1
        for i in range(r, nrows):
            if m[i][c]:
                p = i
                break
        if p < 0:
            continue
        if p != r:
            m[r], m[p] = m[p], m[r]
            sign = -sign
        piv = m[r][c]
        row_r = m[r]
        for i in range(r + 1, nrows):
            row_i = m[i]
            mic = row_i[c]
            if mic:
                for j in range(c + 1, ncols):
                    row_i[j] = (piv * row_i[j] - mic * row_r[j]) // prev
            else:
                for j in range(c + 1, ncols):
                    if row_i[j]:
                        row_i[j] = (piv * row_i[j]) // prev
            row_i[c] = 0
        prev = piv
        piv_cols.append(c)
        r += 1
        if r == nrows:
            break
    return m, piv_cols, sign


def rank_int(rows, ncols):
    """Rank over the fraction field of the entries' ring."""
    _, piv_cols, _ = echelon_int(rows, ncols)
    return len(piv_cols)


def det_int(rows):
    """Determinant of a square integer matrix (the last Bareiss pivot)."""
    n = len(rows)
    if n == 0:
        return 1
    if any(len(r) != n for r in rows):
        raise ValueError("determinant requires a square matrix")
    m, piv_cols, sign = echelon_int(rows, n)
    if len(piv_cols) < n:
        return 0
    return sign * m[n - 1][n - 1]
