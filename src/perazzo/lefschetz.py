"""Lefschetz properties of Artinian Gorenstein algebras A_f = S/Ann(f).

The degree-t piece [A_f]_t is coordinatized through the catalecticant: a
monomial basis is chosen greedily in graded-lex order among operators whose
images w(f) are linearly independent (the pivot columns of the integer
catalecticant).  The t-th relative Hessian of f is the matrix ((w_i w_j)(f))
over that basis; its determinant vanishing or not is basis-independent and
decides the strong Lefschetz property (the classical higher-Hessian
criterion: L = sum a_i y_i is strong-Lefschetz exactly when no Hessian
determinant vanishes at a, so identical vanishing for t <= d/2 kills every
candidate).

The weak Lefschetz property asks for maximal rank of multiplication
x L : [A]_i -> [A]_{i+1} for one general linear form.  That rank is
dim span{(L w)(f) : w in [A]_i}, read at h_{i+1} coefficient positions where
cat_{i+1}(f) has independent rows; no basis of [A]_{i+1} is solved against.
A_f is Gorenstein, so with m = floor((d-1)/2) a form injective on [A]_m has
maximal rank at every stage (Migliore-Miro-Roig-Nagel, Trans. AMS 2011,
Prop. 2.1) and one stage decides.  "General" is decided exactly: random
rational forms are tried first and one reaching the target rank certifies
the property; otherwise the generic rank of the map over the function field
Q(a_0..a_n) in the coefficients of L is computed by fraction-free elimination.

A stage is assembled in two steps.  Its pencil, built from cat_i and
cat_{i+1}, holds the coefficient of each row position in (y_k w_c)(f) for
every basis operator w_c and every variable y_k; evaluating the pencil at
the coefficients of L gives the rational matrix, and at symbols a_0..a_n the
matrix of linear forms.  One verdict (`has_wlp`, `check_lefschetz_element`)
builds each catalecticant and each stage pencil once and reads h, every
random L and the symbolic rank from them.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from typing import Callable

from .bareiss import echelon_int
from .inverse_systems import (
    CatalecticantMap,
    HVector,
    catalecticant,
    ensure_desk_scale,
    h_from_ranks,
)
from .linalg import PolyMatrix, RationalMatrix, det_poly, generic_rank, live_int_rows
from .poly import HomogeneousPoly, VariableSet, apply_monomial_op

__all__ = [
    "monomial_basis_of_A",
    "HessianReport",
    "hessian",
    "LefschetzVerdict",
    "has_slp",
    "has_wlp",
    "mult_map_matrix",
    "check_lefschetz_element",
    "CERT_GENERIC_RANK_MAXIMAL",
    "CERT_ALL_SPECIALIZATIONS_DEFICIENT",
    "CERT_HESSIAN_VANISHES",
    "CERT_HESSIAN_NONZERO",
]

CERT_GENERIC_RANK_MAXIMAL = "generic-rank-maximal"
CERT_ALL_SPECIALIZATIONS_DEFICIENT = "all-specializations-deficient"
CERT_HESSIAN_VANISHES = "hessian-vanishes"
CERT_HESSIAN_NONZERO = "hessian-nonzero"

_WLP_COEFF_RANGE = (1, 997)
_WLP_ATTEMPTS = 3


def monomial_basis_of_A(
    f: HomogeneousPoly,
    t: int,
    reverse: bool = False,
    max_degree: int | None = None,
) -> list[tuple[int, ...]]:
    """Monomial operators of degree t representing a basis of [A_f]_t.

    Greedy: walk S_t monomials in graded-lex order (reversed when asked, for
    basis-independence checks) and keep each one whose image under the
    catalecticant increases the rank.  Deterministic for fixed inputs.
    """
    ensure_desk_scale(f, max_degree)
    if f.is_zero():
        raise ValueError("zero polynomial has no quotient algebra basis")
    if not 0 <= t <= f.degree:
        raise ValueError(f"degree {t} outside 0..{f.degree}")
    return _greedy_basis(catalecticant(f, t, max_degree), reverse)


def _greedy_basis(
    cat: CatalecticantMap, reverse: bool = False
) -> list[tuple[int, ...]]:
    """The operators of `cat` whose images are pivot columns, graded-lex first
    (last when reversed)."""
    order, images = cat.col_monomials, cat.images
    if reverse:
        order, images = order[::-1], images[::-1]
    return [order[j] for j in echelon_int(live_int_rows(images)[1], len(order))[1]]


@dataclass(frozen=True)
class HessianReport:
    """The degree-t Hessian of f over a monomial basis of [A_f]_t."""

    t: int
    basis: tuple[tuple[int, ...], ...]
    matrix: PolyMatrix
    determinant: HomogeneousPoly
    vanishes: bool


def hessian(
    f: HomogeneousPoly,
    t: int,
    reverse: bool = False,
    max_degree: int | None = None,
) -> HessianReport:
    """Relative t-th Hessian: entries (w_i w_j)(f), degree d-2t forms.

    `vanishes` reports identical vanishing of the determinant, which does not
    depend on the basis choice.
    """
    ensure_desk_scale(f, max_degree)
    if not 1 <= t <= f.degree // 2:
        raise ValueError(f"Hessian order {t} outside 1..{f.degree // 2}")
    basis = monomial_basis_of_A(f, t, reverse=reverse, max_degree=max_degree)
    rows = []
    for wi in basis:
        row = []
        for wj in basis:
            combined = tuple(a + b for a, b in zip(wi, wj))
            row.append(apply_monomial_op(combined, f))
        rows.append(row)
    matrix = PolyMatrix(f.vars, rows, ncols=len(basis))
    det = det_poly(matrix)
    return HessianReport(t, tuple(basis), matrix, det, det.is_zero())


@dataclass(frozen=True)
class LefschetzVerdict:
    """Outcome of a weak/strong Lefschetz test with its certificate kind."""

    property: str  # "WLP" | "SLP"
    holds: bool
    failing_degree: int | None
    certificate: str
    witness: HomogeneousPoly | None = None
    vanishing_orders: tuple[int, ...] = ()


def has_slp(
    f: HomogeneousPoly,
    full: bool = False,
    max_degree: int | None = None,
) -> LefschetzVerdict:
    """Strong Lefschetz property via the Hessian criterion.

    Holds iff no Hessian determinant of order t = 1..floor(d/2) vanishes
    identically.  `full=True` keeps going past the first vanishing order so
    the report lists all of them.
    """
    ensure_desk_scale(f, max_degree)
    if f.is_zero():
        raise ValueError("zero polynomial")
    vanishing = []
    for t in range(1, f.degree // 2 + 1):
        if hessian(f, t, max_degree=max_degree).vanishes:
            vanishing.append(t)
            if not full:
                break
    if vanishing:
        return LefschetzVerdict(
            "SLP",
            False,
            vanishing[0],
            CERT_HESSIAN_VANISHES,
            vanishing_orders=tuple(vanishing),
        )
    return LefschetzVerdict("SLP", True, None, CERT_HESSIAN_NONZERO)


def _parameter_variables(n: int) -> VariableSet:
    return VariableSet(tuple(f"a{i}" for i in range(n)))


def _unit_exponents(n: int) -> list[tuple[int, ...]]:
    return [tuple(1 if k == m else 0 for m in range(n)) for k in range(n)]


def _row_coordinates(cat: CatalecticantMap) -> list[tuple[int, ...]]:
    """Coordinates on S_t(f): positions of h_t independent rows of cat_t(f),
    as monomials of degree d-t, graded-lex first."""
    _, rows, data = cat.live_block()
    _, pivots, _ = echelon_int([list(col) for col in zip(*data)], len(rows))
    return [rows[r] for r in pivots]


@dataclass(frozen=True)
class _StagePencil:
    """x L : [A]_i -> [A]_{i+1} for L = sum a_k y_k, before a is chosen.

    `entries[r][c][k]` is the coefficient of the r-th row position of
    cat_{i+1} in (y_k w_c)(f), for the c-th greedy basis operator w_c of
    [A]_i; the matrix of x L is sum_k a_k entries[.][.][k].
    """

    nvars: int
    ncols: int
    entries: list[list[list]]


def _stage_pencil(cat_i: CatalecticantMap, cat_next: CatalecticantMap) -> _StagePencil:
    images = dict(zip(cat_next.col_monomials, cat_next.images))
    unit = _unit_exponents(cat_i.nvars)
    src = _greedy_basis(cat_i)
    shifted = [[images[tuple(map(sum, zip(u, w)))] for u in unit] for w in src]
    entries = [
        [[im.get(pos, 0) for im in col] for col in shifted]
        for pos in _row_coordinates(cat_next)
    ]
    return _StagePencil(cat_i.nvars, len(src), entries)


def _evaluate(
    pencil: _StagePencil, L: HomogeneousPoly | None
) -> RationalMatrix | PolyMatrix:
    """The stage matrix at a concrete L, or over symbols a_0..a_n for L=None."""
    unit = _unit_exponents(pencil.nvars)
    if L is not None:
        a = [L.coefficient(u) for u in unit]
        rows = [
            [sum(x * y for x, y in zip(a, e)) for e in row] for row in pencil.entries
        ]
        return RationalMatrix(rows, ncols=pencil.ncols)
    params = _parameter_variables(pencil.nvars)
    rows = [
        [HomogeneousPoly(params, 1, dict(zip(unit, e))) for e in row]
        for row in pencil.entries
    ]
    return PolyMatrix(params, rows, ncols=pencil.ncols)


def _check_operator(f: HomogeneousPoly, L: HomogeneousPoly) -> None:
    if L.vars != f.vars.dual():
        raise ValueError("L must be an operator over the dual variables")
    if L.degree != 1:
        raise ValueError("L must be linear")


def _verdict_data(
    f: HomogeneousPoly, max_degree: int | None
) -> tuple[HVector, Callable[[int], _StagePencil]]:
    """h and a stage-pencil builder for one verdict on f.

    Each catalecticant and each stage pencil is built at most once; the memo
    lives as long as the verdict that asked for it.
    """
    if f.is_zero():
        raise ValueError("h-vector of the zero polynomial is undefined")
    cat = functools.cache(lambda t: catalecticant(f, t, max_degree))
    h = h_from_ranks(f.degree, [cat(t).rank() for t in range(f.degree // 2 + 1)])
    return h, functools.cache(lambda i: _stage_pencil(cat(i), cat(i + 1)))


def mult_map_matrix(
    f: HomogeneousPoly,
    i: int,
    L: HomogeneousPoly | None = None,
    max_degree: int | None = None,
) -> RationalMatrix | PolyMatrix:
    """Matrix of multiplication by L from [A_f]_i to [A_f]_{i+1}, h_{i+1} x h_i.

    Column c is the image (L w_c)(f) of the c-th greedy basis operator of
    [A_f]_i, read at h_{i+1} coefficient positions where cat_{i+1}(f) has
    independent rows (graded-lex first); on S_{i+1}(f) that projection is
    injective, so the matrix has the rank of the map.  With a concrete linear
    operator L the entries are rational; with L=None the map is taken with
    symbolic coefficients a_0..a_n and the entry at position x^b is the linear
    form sum_k a_k * coefficient of x^b in (y_k w_c)(f).  Each call builds
    cat_i, cat_{i+1} and the stage pencil afresh; `has_wlp` and
    `check_lefschetz_element` build them once per verdict instead.
    """
    ensure_desk_scale(f, max_degree)
    if not 0 <= i < f.degree:
        raise ValueError(f"degree {i} outside 0..{f.degree - 1}")
    if L is not None:
        _check_operator(f, L)
    if f.is_zero():
        raise ValueError("zero polynomial has no quotient algebra basis")
    pencil = _stage_pencil(
        catalecticant(f, i, max_degree), catalecticant(f, i + 1, max_degree)
    )
    return _evaluate(pencil, L)


def check_lefschetz_element(
    f: HomogeneousPoly,
    L: HomogeneousPoly,
    max_degree: int | None = None,
) -> list[tuple[int, int]]:
    """Per-stage (achieved rank, maximal possible rank) for this concrete L."""
    ensure_desk_scale(f, max_degree)
    _check_operator(f, L)
    h, pencil = _verdict_data(f, max_degree)
    return [
        (_evaluate(pencil(i), L).rank(), min(h[i], h[i + 1])) for i in range(f.degree)
    ]


def has_wlp(
    f: HomogeneousPoly,
    seed: int = 0,
    max_degree: int | None = None,
) -> LefschetzVerdict:
    """Weak Lefschetz property for a general linear form, decided exactly.

    Stage i needs generic rank min(h_i, h_{i+1}) for x L : [A]_i -> [A]_{i+1}.
    With m = floor((d-1)/2) and h_m <= h_{m+1}, injectivity at stage m alone
    decides.  Random integer forms (coefficients in [1, 997], derived from
    `seed`) are tried three times there; the first reaching rank h_m is the
    witness, valid at every stage.  Otherwise the stage is settled
    symbolically over the function field in the coefficients of L.  When
    h_m > h_{m+1}, h is not unimodal and WLP fails outright.

    On failure `failing_degree` is the first failing stage plus one.  Stages
    i and d-1-i are dual, so that stage is at most m: stages below m are
    scanned with the first random form, symbolically only where it falls
    short, and stage m is reported when all of them pass.

    h comes from the same catalecticants as the stage matrices: each
    catalecticant and each stage pencil is built once per call, and every
    random L and the symbolic rank evaluate that one pencil.
    """
    ensure_desk_scale(f, max_degree)
    h, pencil = _verdict_data(f, max_degree)
    d = f.degree
    if d == 0:
        return LefschetzVerdict("WLP", True, None, CERT_GENERIC_RANK_MAXIMAL)
    m = (d - 1) // 2
    dual = f.vars.dual()
    rng = random.Random(seed)
    unit = _unit_exponents(len(dual))
    candidates = [
        HomogeneousPoly(dual, 1, {u: rng.randint(*_WLP_COEFF_RANGE) for u in unit})
        for _ in range(_WLP_ATTEMPTS)
    ]

    def reaches(i: int, L: HomogeneousPoly | None) -> bool:
        target = min(h[i], h[i + 1])
        matrix = _evaluate(pencil(i), L)
        return (matrix.rank() if L is not None else generic_rank(matrix)) == target

    if h[m] <= h[m + 1]:
        for L in candidates:
            if reaches(m, L):
                return LefschetzVerdict(
                    "WLP", True, None, CERT_GENERIC_RANK_MAXIMAL, witness=L
                )
        if reaches(m, None):
            return LefschetzVerdict("WLP", True, None, CERT_GENERIC_RANK_MAXIMAL)
    failing = next(
        (i for i in range(m) if not reaches(i, candidates[0]) and not reaches(i, None)),
        m,
    )
    return LefschetzVerdict(
        "WLP", False, failing + 1, CERT_ALL_SPECIALIZATIONS_DEFICIENT
    )
