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
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .bareiss import echelon_int
from .inverse_systems import catalecticant, ensure_desk_scale, h_vector
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
    cat = catalecticant(f, t, max_degree)
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


def _row_coordinates(
    f: HomogeneousPoly, t: int, max_degree: int | None = None
) -> tuple[list[tuple[int, ...]], dict[tuple[int, ...], dict]]:
    """Coordinates on S_t(f): positions of h_t independent rows of cat_t(f).

    Returns those positions (monomials of degree d-t, graded-lex first) and
    the image terms w(f) of every degree-t monomial operator w.
    """
    cat = catalecticant(f, t, max_degree)
    _, rows, data = cat.live_block()
    _, pivots, _ = echelon_int([list(col) for col in zip(*data)], len(rows))
    return [rows[r] for r in pivots], dict(zip(cat.col_monomials, cat.images))


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
    form sum_k a_k * coefficient of x^b in (y_k w_c)(f).
    """
    ensure_desk_scale(f, max_degree)
    if not 0 <= i < f.degree:
        raise ValueError(f"degree {i} outside 0..{f.degree - 1}")
    if L is not None:
        if L.vars != f.vars.dual():
            raise ValueError("L must be an operator over the dual variables")
        if L.degree != 1:
            raise ValueError("L must be linear")
    src = monomial_basis_of_A(f, i, max_degree=max_degree)
    positions, images = _row_coordinates(f, i + 1, max_degree)
    unit = _unit_exponents(len(f.vars))
    shifted = [[images[tuple(map(sum, zip(u, w)))] for u in unit] for w in src]
    # entries[r][c][k]: coefficient of x^positions[r] in (y_k w_c)(f)
    entries = [[[im.get(pos, 0) for im in col] for col in shifted] for pos in positions]
    if L is not None:
        a = [L.coefficient(u) for u in unit]
        rows = [[sum(x * y for x, y in zip(a, e)) for e in row] for row in entries]
        return RationalMatrix(rows, ncols=len(src))
    params = _parameter_variables(len(f.vars))
    rows = [
        [HomogeneousPoly(params, 1, dict(zip(unit, e))) for e in row] for row in entries
    ]
    return PolyMatrix(params, rows, ncols=len(src))


def check_lefschetz_element(
    f: HomogeneousPoly,
    L: HomogeneousPoly,
    max_degree: int | None = None,
) -> list[tuple[int, int]]:
    """Per-stage (achieved rank, maximal possible rank) for this concrete L."""
    ensure_desk_scale(f, max_degree)
    h = h_vector(f, max_degree)
    out = []
    for i in range(f.degree):
        m = mult_map_matrix(f, i, L, max_degree=max_degree)
        out.append((m.rank(), min(h[i], h[i + 1])))
    return out


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
    """
    ensure_desk_scale(f, max_degree)
    h = h_vector(f, max_degree)
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
        matrix = mult_map_matrix(f, i, L, max_degree=max_degree)
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
