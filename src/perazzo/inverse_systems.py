"""Macaulay inverse systems: catalecticant maps, h-vectors, annihilators.

For a nonzero form f of degree d, the degree-t catalecticant is the linear map
S_t -> R_{d-t} sending a differential operator w to w(f).  Its rank is the
Hilbert function value h_t of the Artinian Gorenstein quotient A_f = S/Ann(f),
and its kernel is the degree-t graded piece of the annihilator ideal.

A catalecticant is kept as its sparse images w(f).  An image is nonzero only
when w divides a term of f, and its terms are monomials dividing terms of f,
so rank and kernel are read from the live block: the nonzero images as
columns, the monomials occurring in them as rows.  For a Perazzo form that
block is the paper's [[stacked, 0], [g-block, joined]] on 4t+1 of the
C(t+4, 4) operators.  The dense matrix over all monomials is built only when
asked for.

Also here: the binomial expansion behind Macaulay's growth bound, the derived
upper/lower bound operators, the O-sequence test, and the Green restriction
bound for general linear sections.

Computations refuse forms past the desk-scale guard (degree > 32 or more than
8 variables) unless the caller raises the limits explicitly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence

from .bareiss import rank_int
from .errors import GuardError, InternalError
from .linalg import RationalMatrix, live_int_rows
from .poly import HomogeneousPoly, VariableSet, apply_monomial_op, monomials

__all__ = [
    "DEFAULT_MAX_DEGREE",
    "DEFAULT_MAX_VARS",
    "ensure_desk_scale",
    "CatalecticantMap",
    "catalecticant",
    "HVector",
    "h_vector",
    "ann_basis",
    "binomial_expansion",
    "macaulay_upper",
    "macaulay_lower",
    "is_osequence",
    "green_bound",
]

DEFAULT_MAX_DEGREE = 32
DEFAULT_MAX_VARS = 8


def ensure_desk_scale(
    f: HomogeneousPoly,
    max_degree: int | None = None,
    max_vars: int | None = None,
) -> None:
    """Refuse inputs past the guard unless limits are raised explicitly."""
    limit_d = DEFAULT_MAX_DEGREE if max_degree is None else max_degree
    limit_v = DEFAULT_MAX_VARS if max_vars is None else max_vars
    if f.degree > limit_d:
        raise GuardError(
            f"degree {f.degree} exceeds the guard ({limit_d}); "
            "raise max_degree to proceed"
        )
    if len(f.vars) > limit_v:
        raise GuardError(
            f"{len(f.vars)} variables exceed the guard ({limit_v}); "
            "raise max_vars to proceed"
        )


@dataclass(frozen=True)
class CatalecticantMap:
    """The map S_t -> R_{d-t}, w -> w(f), kept as its sparse images.

    `images[j]` is the term map of w(f) for the j-th operator of
    `col_monomials` (degree t in S, graded-lex); dead operators have empty
    images.  `rank()` eliminates the live block only.  The dense `matrix`,
    with rows indexed by `row_monomials` (degree d-t in R, graded-lex), is
    built on first access.
    """

    source_degree: int
    target_degree: int
    nvars: int
    images: tuple[dict[tuple[int, ...], Fraction], ...]
    col_monomials: tuple[tuple[int, ...], ...]

    def live_block(self) -> tuple[list[int], list[tuple[int, ...]], list[list[int]]]:
        """(live columns, live row monomials, integer rows of the live block)."""
        live = [j for j, image in enumerate(self.images) if image]
        rows, data = live_int_rows([self.images[j] for j in live])
        return live, rows, data

    def rank(self) -> int:
        live, _, data = self.live_block()
        return rank_int(data, len(live))

    @cached_property
    def row_monomials(self) -> tuple[tuple[int, ...], ...]:
        return tuple(monomials(self.nvars, self.target_degree))

    @cached_property
    def matrix(self) -> RationalMatrix:
        row_index = {e: i for i, e in enumerate(self.row_monomials)}
        data = [[Fraction(0)] * len(self.images) for _ in self.row_monomials]
        for j, image in enumerate(self.images):
            for e, c in image.items():
                data[row_index[e]][j] = c
        return RationalMatrix(data, ncols=len(self.images))


def catalecticant(
    f: HomogeneousPoly,
    t: int,
    max_degree: int | None = None,
    max_vars: int | None = None,
) -> CatalecticantMap:
    """Catalecticant map of f in operator degree t (0 <= t <= deg f)."""
    ensure_desk_scale(f, max_degree, max_vars)
    if not 0 <= t <= f.degree:
        raise ValueError(f"operator degree {t} outside 0..{f.degree}")
    n = len(f.vars)
    cols = monomials(n, t)
    images = tuple(apply_monomial_op(op, f).terms for op in cols)
    return CatalecticantMap(t, f.degree - t, n, images, tuple(cols))


@dataclass(frozen=True, eq=False)
class HVector:
    """Hilbert function of an Artinian graded algebra, as a finite tuple."""

    entries: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "entries", tuple(int(e) for e in self.entries))
        if not self.entries:
            raise ValueError("empty h-vector")
        if any(e < 0 for e in self.entries):
            raise ValueError("negative h-vector entry")

    @property
    def socle_degree(self) -> int:
        return len(self.entries) - 1

    def is_symmetric(self) -> bool:
        return self.entries == self.entries[::-1]

    def __iter__(self):
        return iter(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __getitem__(self, i: int) -> int:
        return self.entries[i]

    def __eq__(self, other) -> bool:
        if isinstance(other, HVector):
            return self.entries == other.entries
        if isinstance(other, (tuple, list)):
            return self.entries == tuple(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.entries)

    def __repr__(self) -> str:
        return f"HVector{self.entries}"


def h_vector(
    f: HomogeneousPoly,
    max_degree: int | None = None,
    max_vars: int | None = None,
) -> HVector:
    """Hilbert function of A_f = S/Ann(f) for a nonzero form f.

    Catalecticant ranks are computed for t <= d/2 and mirrored; the rank
    symmetry rank(cat_t) = rank(cat_{d-t}) holds for every f because A_f is
    Gorenstein with socle degree d.
    """
    ensure_desk_scale(f, max_degree, max_vars)
    if f.is_zero():
        raise ValueError("h-vector of the zero polynomial is undefined")
    d = f.degree
    half = [
        catalecticant(f, t, max_degree, max_vars).rank() for t in range(d // 2 + 1)
    ]
    return h_from_ranks(d, half)


def h_from_ranks(d: int, half: Sequence[int]) -> HVector:
    """The h-vector of socle degree d from the catalecticant ranks h_0..h_{d//2}.

    The ranks are mirrored, and the result is checked to be symmetric and an
    O-sequence; a failure is an internal error, never a property of f.
    """
    entries = list(half) + [half[d - t] for t in range(d // 2 + 1, d + 1)]
    hv = HVector(tuple(entries))
    if not hv.is_symmetric():
        raise InternalError(f"h-vector {hv} is not symmetric")
    if not is_osequence(hv):
        raise InternalError(f"h-vector {hv} fails the O-sequence growth test")
    return hv


def ann_basis(
    f: HomogeneousPoly,
    t: int,
    max_degree: int | None = None,
    max_vars: int | None = None,
) -> list[HomogeneousPoly]:
    """Basis of the degree-t graded piece of Ann(f), as operator polynomials.

    Deterministic: kernel vectors of the catalecticant, content-normalized
    with positive leading coefficient, one per non-pivot operator in
    graded-lex order.  Dead operators (w(f) = 0) are kernel vectors by
    themselves; the rest come from the kernel of the live block.  For
    t > deg f this is all of S_t, so t answers to the same degree guard as f.
    """
    ensure_desk_scale(f, max_degree, max_vars)
    dual = f.vars.dual()
    if t < 0:
        raise ValueError("operator degree must be nonnegative")
    limit_d = DEFAULT_MAX_DEGREE if max_degree is None else max_degree
    if t > limit_d:
        raise GuardError(
            f"operator degree {t} exceeds the guard ({limit_d}); "
            "raise max_degree to proceed"
        )
    if t > f.degree:
        return [
            HomogeneousPoly.monomial(dual, e) for e in monomials(len(f.vars), t)
        ]
    cat = catalecticant(f, t, max_degree, max_vars)
    live, _, data = cat.live_block()
    # In reduced echelon form the kernel vector of a free column has its last
    # nonzero entry there, so sorting by that entry lists dead and live free
    # columns together in column order, as the kernel of the dense matrix does.
    vectors = [
        {live[k]: c for k, c in enumerate(vec) if c}
        for vec in RationalMatrix(data, ncols=len(live)).kernel_basis()
    ]
    vectors += [{j: Fraction(1)} for j, image in enumerate(cat.images) if not image]
    vectors.sort(key=max)
    basis = []
    for vec in vectors:
        p = HomogeneousPoly(dual, t, {cat.col_monomials[j]: c for j, c in vec.items()})
        lead = p.terms[p.leading_monomial()]
        if lead < 0:
            p = -p
        basis.append(p)
    return basis


# -- Macaulay growth machinery ------------------------------------------------


def binomial_expansion(n: int, d: int) -> list[tuple[int, int]]:
    """The unique expansion n = C(a_d,d) + C(a_{d-1},d-1) + ... + C(a_e,e)
    with a_d > a_{d-1} > ... > a_e >= e >= 1, as (a_j, j) pairs."""
    if n < 1 or d < 1:
        raise ValueError("binomial expansion needs n >= 1 and d >= 1")
    out = []
    j = d
    rest = n
    while rest > 0:
        a = j
        while math.comb(a + 1, j) <= rest:
            a += 1
        out.append((a, j))
        rest -= math.comb(a, j)
        j -= 1
    return out


def macaulay_upper(n: int, d: int) -> int:
    """Macaulay bound n^<d>: shift both expansion rows up by one."""
    return sum(math.comb(a + 1, j + 1) for a, j in binomial_expansion(n, d))


def macaulay_lower(n: int, d: int) -> int:
    """The companion lower shift n_<d>: drop the expansion tops by one."""
    return sum(math.comb(a - 1, j) for a, j in binomial_expansion(n, d))


def is_osequence(h: HVector | Sequence[int]) -> bool:
    """True iff h starts at 1 and obeys Macaulay growth h_{t+1} <= h_t^<t>."""
    entries = tuple(h)
    if not entries or entries[0] != 1:
        return False
    if any(e < 0 for e in entries):
        return False
    for t in range(1, len(entries) - 1):
        cur, nxt = entries[t], entries[t + 1]
        bound = macaulay_upper(cur, t) if cur else 0
        if nxt > bound:
            return False
    return True


def green_bound(h_t: int, t: int) -> int:
    """Green's restriction bound: a general linear section of a component of
    dimension h_t in degree t has dimension at most (h_t)_<t>."""
    return macaulay_lower(h_t, t)
