"""Perazzo 3-folds in P^4 and their Artinian Gorenstein invariants.

A Perazzo form is f = p0 x0 + p1 x1 + p2 x2 + g with p0, p1, p2 linearly
independent binary forms of degree d-1 in (u, v) and g a binary form of
degree d.  The h-vector of S/Ann(f) is controlled by Hankel blocks built
from the descaled coefficient vectors of the p_i and g: the side-by-side
block gives one summand, the stacked block the other, and adjoining the
g-block turns the lower bound into an upper bound (exact when g = 0).

The geometry behind the classification: the plane spanned by p0, p1, p2 in
the space of degree-(d-1) binary forms meets the rational normal curve of
pure powers in a divisor of degree at most 3.  The kernel of the matrix of
descaled coefficients is the degree-(d-1) annihilator of that plane, and
the divisor is the gcd of its basis forms.  For forms defining reduced
hypersurfaces the h-vector is minimal exactly when that divisor has full
degree 3, so that the annihilator is its cubic times every form of degree
d-4, and that cubic differential operator also annihilates g; the root
multiplicities (3), (2,1), (1,1,1) distinguish an osculating plane, a
tangent plane through an extra point, and a plane through three distinct
points.  Everything is decided by exact gcd and rank computations over Q,
so irrational intersection points never need to be represented.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import NamedTuple, Sequence

from .binary import (
    binary_divides,
    binary_gcd,
    binary_partials,
    is_squarefree,
    linear_factors,
    normalize_binary,
    rational_roots,
)
from .errors import InternalError
from .inverse_systems import HVector, ann_basis, catalecticant, ensure_desk_scale
from .linalg import RationalMatrix, solve_linear
from .poly import (
    ROLE_UV,
    ROLE_X,
    HomogeneousPoly,
    VariableSet,
    apply_monomial_op,
    binary_variables,
    coeff_vector,
    monomials,
    perazzo_variables,
)

__all__ = [
    "PerazzoForm",
    "BlockMatrices",
    "hankel_block",
    "blocks",
    "HRankBounds",
    "h_via_ranks",
    "max_hvector",
    "min_hvector",
    "WaringResult",
    "waring_rank",
    "secant_membership",
    "intersection_divisor",
    "multiplicity_pattern",
    "PerazzoCase",
    "Normalization",
    "PerazzoClass",
    "classify",
    "classify_polynomial",
    "is_cone",
    "algebraic_relation",
    "osculating_family",
    "tangent_point_family",
    "three_points_family",
    "random_perazzo_form",
]


class PerazzoForm:
    """f = p0 x0 + p1 x1 + p2 x2 + g with linearly independent p_i.

    The p_i are binary forms of degree d-1 over a shared two-variable ring,
    g has degree d (possibly zero).  Descaled coefficient vectors a, b, c,
    gcoef divide entry i by binomial(deg, i); the Hankel blocks below are
    built from these.
    """

    __slots__ = ("p0", "p1", "p2", "g", "a", "b", "c", "gcoef")

    def __init__(
        self,
        p0: HomogeneousPoly,
        p1: HomogeneousPoly,
        p2: HomogeneousPoly,
        g: HomogeneousPoly | None = None,
        max_degree: int | None = None,
    ):
        if len(p0.vars) != 2:
            raise ValueError("p0, p1, p2 must be binary forms")
        if p1.vars != p0.vars or p2.vars != p0.vars:
            raise ValueError("p0, p1, p2 must share one variable set")
        d = p0.degree + 1
        if d < 3:
            raise ValueError("Perazzo forms need degree d >= 3")
        if p1.degree != d - 1 or p2.degree != d - 1:
            raise ValueError("p0, p1, p2 must have equal degree")
        if g is None:
            g = HomogeneousPoly.zero(p0.vars, d)
        if g.vars != p0.vars:
            raise ValueError("g must live in the same ring as the p_i")
        if g.degree != d:
            raise ValueError(f"g must have degree {d}, got {g.degree}")
        ensure_desk_scale(g, max_degree)
        plain = RationalMatrix(
            [coeff_vector(p, descale=False) for p in (p0, p1, p2)], ncols=d
        )
        if plain.rank() != 3:
            raise ValueError("p0, p1, p2 are linearly dependent")
        object.__setattr__(self, "p0", p0)
        object.__setattr__(self, "p1", p1)
        object.__setattr__(self, "p2", p2)
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "a", coeff_vector(p0, descale=True))
        object.__setattr__(self, "b", coeff_vector(p1, descale=True))
        object.__setattr__(self, "c", coeff_vector(p2, descale=True))
        object.__setattr__(self, "gcoef", coeff_vector(g, descale=True))

    def __setattr__(self, name, value):
        raise AttributeError("PerazzoForm is immutable")

    @property
    def degree(self) -> int:
        return self.g.degree

    @property
    def vars(self) -> VariableSet:
        return self.p0.vars

    def __eq__(self, other) -> bool:
        if not isinstance(other, PerazzoForm):
            return NotImplemented
        return (self.p0, self.p1, self.p2, self.g) == (
            other.p0,
            other.p1,
            other.p2,
            other.g,
        )

    def __repr__(self) -> str:
        return (
            f"PerazzoForm(d={self.degree}, p0={self.p0.render()}, "
            f"p1={self.p1.render()}, p2={self.p2.render()}, g={self.g.render()})"
        )

    @classmethod
    def from_polynomial(
        cls, f: HomogeneousPoly, max_degree: int | None = None
    ) -> "PerazzoForm":
        """Split a five-variable form of shape p0 x0 + p1 x1 + p2 x2 + g.

        Raises ValueError when the variable set lacks the 3+2 block
        structure, when some monomial has x-degree above 1, or when the
        extracted p_i are linearly dependent.
        """
        xidx = f.vars.block_indices(ROLE_X)
        uvidx = f.vars.block_indices(ROLE_UV)
        if len(xidx) != 3 or len(uvidx) != 2:
            raise ValueError(
                "variable set needs a 3-variable x-block and a 2-variable uv-block"
            )
        uv = binary_variables((f.vars.names[uvidx[0]], f.vars.names[uvidx[1]]))
        d = f.degree
        p_terms: list[dict] = [{}, {}, {}]
        g_terms: dict = {}
        for exps, coeff in f.terms.items():
            xdeg = sum(exps[i] for i in xidx)
            if xdeg > 1:
                raise ValueError(
                    "not a Perazzo shape: monomial with x-degree above 1"
                )
            uv_exps = (exps[uvidx[0]], exps[uvidx[1]])
            if xdeg == 1:
                which = next(k for k, i in enumerate(xidx) if exps[i])
                p_terms[which][uv_exps] = coeff
            else:
                g_terms[uv_exps] = coeff
        ps = [HomogeneousPoly(uv, d - 1, t) for t in p_terms]
        g = HomogeneousPoly(uv, d, g_terms)
        return cls(ps[0], ps[1], ps[2], g, max_degree=max_degree)

    def to_polynomial(self, vars: VariableSet | None = None) -> HomogeneousPoly:
        """Assemble the five-variable form p0 x0 + p1 x1 + p2 x2 + g."""
        target = vars if vars is not None else perazzo_variables()
        xidx = target.block_indices(ROLE_X)
        uvidx = target.block_indices(ROLE_UV)
        if len(xidx) != 3 or len(uvidx) != 2:
            raise ValueError(
                "target variable set needs a 3-variable x-block and a 2-variable uv-block"
            )
        n = len(target)
        terms: dict = {}
        for which, p in enumerate((self.p0, self.p1, self.p2)):
            for (eu, ev), coeff in p.terms.items():
                exps = [0] * n
                exps[xidx[which]] = 1
                exps[uvidx[0]] = eu
                exps[uvidx[1]] = ev
                terms[tuple(exps)] = coeff
        for (eu, ev), coeff in self.g.terms.items():
            exps = [0] * n
            exps[uvidx[0]] = eu
            exps[uvidx[1]] = ev
            terms[tuple(exps)] = coeff
        return HomogeneousPoly(target, self.degree, terms)


def hankel_block(coeffs: Sequence[Fraction], width: int) -> RationalMatrix:
    """Hankel matrix with entry [r][c] = coeffs[r + c] and the given width."""
    nrows = len(coeffs) - width + 1
    if width < 1 or nrows < 1:
        raise ValueError("Hankel width out of range for this vector")
    return RationalMatrix(
        [[coeffs[r + c] for c in range(width)] for r in range(nrows)],
        ncols=width,
    )


@dataclass(frozen=True)
class BlockMatrices:
    """The Hankel blocks of width k plus the assembled rank matrices.

    joined places the three width-k blocks side by side; stacked stacks the
    three width-(k+1) blocks; stacked_with_g additionally appends the
    g-block of width k+1 below.
    """

    k: int
    p0_hankel: RationalMatrix
    p1_hankel: RationalMatrix
    p2_hankel: RationalMatrix
    g_hankel: RationalMatrix
    joined: RationalMatrix
    stacked: RationalMatrix
    stacked_with_g: RationalMatrix


def blocks(pf: PerazzoForm, k: int) -> BlockMatrices:
    """Assemble the degree-k block matrices of a Perazzo form.

    Valid for 2 <= k <= floor((d+1)/2).  The transpose identity
    rank(joined at k) = rank(stacked at d-k) holds across the range.
    """
    d = pf.degree
    if not 2 <= k <= (d + 1) // 2:
        raise ValueError(f"block index {k} outside 2..{(d + 1) // 2}")
    a_k = hankel_block(pf.a, k)
    b_k = hankel_block(pf.b, k)
    c_k = hankel_block(pf.c, k)
    g_k = hankel_block(pf.gcoef, k + 1)
    joined = a_k.hstack(b_k).hstack(c_k)
    stacked = (
        hankel_block(pf.a, k + 1)
        .vstack(hankel_block(pf.b, k + 1))
        .vstack(hankel_block(pf.c, k + 1))
    )
    return BlockMatrices(
        k, a_k, b_k, c_k, g_k, joined, stacked, stacked.vstack(g_k)
    )


class HRankBounds(NamedTuple):
    """Termwise h-vector bounds from block ranks; exact when decided."""

    lower: HVector
    upper: HVector
    exact: HVector | None


def h_via_ranks(pf: PerazzoForm) -> HRankBounds:
    """h-vector bounds of S/Ann(f) from block matrix ranks.

    Per degree i the lower bound is rank(joined) + rank(stacked) and the
    upper bound adds the g-block; the ends are always (1, 5, ..., 5, 1) and
    degrees past d/2 mirror by Gorenstein symmetry.  The exact vector is
    filled in when g = 0 or when the bounds already agree.
    """
    d = pf.degree
    if d == 3:
        hv = HVector((1, 5, 5, 1))
        return HRankBounds(hv, hv, hv)
    lo: dict[int, int] = {}
    up: dict[int, int] = {}
    for i in range(2, d // 2 + 1):
        bl = blocks(pf, i)
        m_rank = bl.joined.rank()
        lo[i] = m_rank + bl.stacked.rank()
        up[i] = m_rank + bl.stacked_with_g.rank()

    def full(vals: dict[int, int]) -> tuple[int, ...]:
        middle = [vals[min(i, d - i)] for i in range(2, d - 1)]
        return tuple([1, 5] + middle + [5, 1])

    lower = full(lo)
    upper = full(up)
    exact = HVector(lower) if pf.g.is_zero() or lower == upper else None
    return HRankBounds(HVector(lower), HVector(upper), exact)


def max_hvector(d: int) -> HVector:
    """Largest h-vector over all Perazzo forms of degree d (d >= 4).

    Termwise min(4i + 1, d + 2), mirrored; the plateau value d + 2 is what
    the four residues of d mod 4 produce case by case.
    """
    if d < 4:
        raise ValueError("extremal h-vectors require d >= 4")
    return HVector(tuple(min(4 * i + 1, 4 * (d - i) + 1, d + 2) for i in range(d + 1)))


def min_hvector(d: int) -> HVector:
    """Smallest h-vector over all Perazzo forms of degree d (d >= 4)."""
    if d < 4:
        raise ValueError("extremal h-vectors require d >= 4")
    return HVector(tuple([1, 5] + [6] * (d - 3) + [5, 1]))


@dataclass(frozen=True)
class WaringResult:
    """Waring rank data for a binary form.

    decomposition_witness, when present, lists (linear form, scalar) pairs
    whose scaled degree-e powers sum to the input exactly; it is populated
    only when a decomposition over the rationals is found.
    """

    rank: int
    border_rank: int
    decomposition_witness: tuple[tuple[HomogeneousPoly, Fraction], ...] | None


_WITNESS_COEFFS = (1, -1, 2, -2, 3, -3, 4, -4, 5, -5, 6, -6)
_WITNESS_CAP = 8000


def _point_form(ring: VariableSet, factor: HomogeneousPoly) -> HomogeneousPoly:
    # operator factor bU - aV annihilates (au + bv)^e; recover that form,
    # signed so the first nonzero coefficient is positive
    f_u = factor.coefficient((1, 0))
    f_v = factor.coefficient((0, 1))
    a, b = -f_v, f_u
    if a < 0 or (a == 0 and b < 0):
        a, b = -a, -b
    return HomogeneousPoly(ring, 1, {(1, 0): a, (0, 1): b})


def _witness_candidates(ops, q1, r):
    for op in ops:
        yield op
    for i in range(len(ops)):
        for j in range(i + 1, len(ops)):
            for c in _WITNESS_COEFFS:
                yield ops[i] + ops[j].scale(c)
    if q1 is None or not 1 <= q1.degree < r:
        return
    w0 = next((op for op in ops if not binary_divides(q1, op)), None)
    if w0 is None:
        return
    dual = q1.vars
    mons = [HomogeneousPoly.monomial(dual, e) for e in monomials(2, r - q1.degree)]
    for m in mons:
        shifted = q1 * m
        for c in _WITNESS_COEFFS:
            yield w0 + shifted.scale(c)
    for i in range(len(mons)):
        si = q1 * mons[i]
        for j in range(i + 1, len(mons)):
            sj = q1 * mons[j]
            for c1 in _WITNESS_COEFFS:
                base = w0 + si.scale(c1)
                for c2 in _WITNESS_COEFFS:
                    yield base + sj.scale(c2)


def _decomposition_witness(p, r, ops, q1):
    """Search for r distinct rational power-sum points annihilated by Ann_r."""
    e = p.degree
    target = coeff_vector(p, descale=False)
    budget = _WITNESS_CAP
    for cand in _witness_candidates(ops, q1, r):
        budget -= 1
        if budget < 0:
            return None
        if cand.is_zero():
            continue
        _, factors, remainder = linear_factors(cand)
        if remainder is not None or len(factors) != r:
            continue
        if any(mult != 1 for _, mult in factors):
            continue
        points = [_point_form(p.vars, form) for form, _ in factors]
        cols = [coeff_vector(pt**e, descale=False) for pt in points]
        system = RationalMatrix(
            [[cols[c][row] for c in range(r)] for row in range(e + 1)], ncols=r
        )
        sol = solve_linear(system, target)
        if sol is None or any(not x for x in sol):
            continue
        return tuple(zip(points, sol))
    return None


def waring_rank(p: HomogeneousPoly, max_degree: int | None = None) -> WaringResult:
    """Waring rank of a binary form by Sylvester's exact procedure.

    Walk r = 1, 2, ...: the rank is the first r whose degree-r annihilators
    have a square-free member, detected through the gcd of the kernel (the
    gcd itself while the kernel is principal, a constant gcd once the second
    generator appears; a constant is square-free).  The border rank is the
    rank of the balanced catalecticant.
    """
    if len(p.vars) != 2:
        raise ValueError("Waring rank here is for binary forms")
    if p.is_zero() or p.degree < 1:
        raise ValueError("Waring rank needs a nonzero form of positive degree")
    ensure_desk_scale(p, max_degree)
    e = p.degree
    border = catalecticant(p, (e + 1) // 2, max_degree=max_degree).rank()
    q1 = None
    for r in range(1, e + 1):
        ops = ann_basis(p, r, max_degree=max_degree)
        if not ops:
            continue
        g = ops[0]
        for op in ops[1:]:
            g = binary_gcd(g, op)
        if is_squarefree(g):
            witness = _decomposition_witness(p, r, ops, q1)
            return WaringResult(r, border, witness)
        q1 = g
    raise InternalError("Sylvester loop found no square-free annihilator")


def secant_membership(
    p: HomogeneousPoly, r: int, max_degree: int | None = None
) -> bool:
    """Whether p lies on the r-th secant variety of the power curve.

    Decided by the balanced catalecticant: membership is rank <= r at
    width floor((deg + 1) / 2).
    """
    if r < 1:
        raise ValueError("secant index must be at least 1")
    if len(p.vars) != 2:
        raise ValueError("secant membership here is for binary forms")
    if p.is_zero() or p.degree < 1:
        raise ValueError("secant membership needs a nonzero form")
    ensure_desk_scale(p, max_degree)
    k = (p.degree + 1) // 2
    return catalecticant(p, k, max_degree=max_degree).rank() <= r


_DIVISOR_VARS = VariableSet(("s", "t"))


def intersection_divisor(pf: PerazzoForm) -> HomogeneousPoly:
    """Divisor of power-curve points lying in the plane of p0, p1, p2.

    The operator sum n_k U^(d-1-k) V^k kills p exactly when sum n_k a_k = 0
    for its descaled coefficients a, so the kernel of the 3xd matrix of
    descaled coefficient vectors is the degree-(d-1) annihilator of the
    p-plane.  The divisor is the gcd of its d-3 basis forms, read in (s, t):
    a binary form of degree at most 3, degree 3 exactly when that
    annihilator is the cubic D times every form of degree d-4.
    """
    d = pf.degree
    if d < 5:
        raise ValueError("intersection divisor requires d >= 5")
    kernel = RationalMatrix([pf.a, pf.b, pf.c], ncols=d).kernel_basis()
    forms = [
        HomogeneousPoly(
            _DIVISOR_VARS, d - 1, {(d - 1 - k, k): x for k, x in enumerate(n) if x}
        )
        for n in kernel
    ]
    divisor = forms[0]
    for form in forms[1:]:
        if divisor.degree == 0:
            break
        divisor = binary_gcd(divisor, form)
    return normalize_binary(divisor)


def multiplicity_pattern(divisor: HomogeneousPoly) -> tuple[int, ...]:
    """Root multiplicities of a binary form of degree <= 3, largest first.

    Computed without root-finding: the degree of gcd(D_s, D_t) counts the
    repeated part, which pins the pattern down completely in degree <= 3.
    """
    if divisor.is_zero():
        raise ValueError("zero divisor has no multiplicity pattern")
    deg = divisor.degree
    if deg > 3:
        raise ValueError("multiplicity pattern is defined for degree <= 3")
    if deg == 0:
        return ()
    if deg == 1:
        return (1,)
    du, dv = binary_partials(divisor)
    rep = binary_gcd(du, dv).degree
    table = {
        (2, 0): (1, 1),
        (2, 1): (2,),
        (3, 0): (1, 1, 1),
        (3, 1): (2, 1),
        (3, 2): (3,),
    }
    return table[(deg, rep)]


class PerazzoCase(Enum):
    """Geometric position of the p-plane against the power curve."""

    OSCULATING = "osculating-plane"
    TANGENT_PLUS_POINT = "tangent-plane-and-point"
    THREE_POINTS = "three-distinct-points"
    NON_MINIMAL = "non-minimal"
    NOT_PERAZZO = "not-perazzo"


_PATTERN_TO_CASE = {
    (3,): PerazzoCase.OSCULATING,
    (2, 1): PerazzoCase.TANGENT_PLUS_POINT,
    (1, 1, 1): PerazzoCase.THREE_POINTS,
}


@dataclass(frozen=True)
class Normalization:
    """Rational coordinate data for a classified form.

    first and second are linear forms in (u, v) locating the divisor's
    points: the osculation point plus any complement, the tangency point
    plus the extra point, or the first and last of the three points with
    (lam, mu) expressing the middle point in that basis.  Populated only
    when every divisor root is rational.
    """

    first: HomogeneousPoly
    second: HomogeneousPoly
    lam: Fraction | None = None
    mu: Fraction | None = None


@dataclass(frozen=True)
class PerazzoClass:
    """Classification verdict: case, divisor data, g-compatibility."""

    case: PerazzoCase
    divisor: HomogeneousPoly | None
    divisor_pattern: tuple[int, ...] | None
    g_compatible: bool
    normalization: Normalization | None


def _annihilates(op: HomogeneousPoly, h: HomogeneousPoly) -> bool:
    """Whether the binary operator op(U, V) kills h under apolarity."""
    image = HomogeneousPoly.zero(h.vars, h.degree - op.degree)
    for exps, coeff in op.terms.items():
        image = image + apply_monomial_op(exps, h).scale(coeff)
    return image.is_zero()


def _root_form(ring: VariableSet, root: tuple[int, int]) -> HomogeneousPoly:
    return HomogeneousPoly(ring, 1, {(1, 0): Fraction(root[0]), (0, 1): Fraction(root[1])})


def _normalization_from_roots(
    ring: VariableSet, case: PerazzoCase, roots
) -> Normalization | None:
    if roots is None:
        return None
    if case is PerazzoCase.OSCULATING:
        (s0, t0), _ = roots[0]
        complement = HomogeneousPoly(
            ring, 1, {(1, 0): Fraction(-t0), (0, 1): Fraction(s0)}
        )
        return Normalization(_root_form(ring, (s0, t0)), complement)
    if case is PerazzoCase.TANGENT_PLUS_POINT:
        double = next(r for r, m in roots if m == 2)
        single = next(r for r, m in roots if m == 1)
        return Normalization(_root_form(ring, double), _root_form(ring, single))
    pts = sorted(r for r, _ in roots)
    (s0, t0), (s1, t1), (s2, t2) = pts
    denom = Fraction(s0 * t2 - s2 * t0)
    lam = Fraction(s1 * t2 - s2 * t1) / denom
    mu = Fraction(s0 * t1 - s1 * t0) / denom
    return Normalization(
        _root_form(ring, (s0, t0)), _root_form(ring, (s2, t2)), lam, mu
    )


def classify(pf: PerazzoForm) -> PerazzoClass:
    """Position of the p-plane against the power curve, plus the g test.

    For forms defining reduced hypersurfaces the h-vector of the assembled
    form is minimal exactly when the intersection divisor D has degree 3 and
    the cubic operator D(U, V) also kills g.  Degree 3 means D spans the
    cubic annihilators of p0, p1, p2 (for d >= 5 there is at most one up to
    scale), so the g test is that single operator applied to g.  A
    non-reduced form (one the binary variables divide) can have minimal
    h-vector while failing the g test.  Divisors of degree below 3 are
    reported as non-minimal with the observed data attached.
    """
    if pf.degree < 5:
        raise ValueError("classification requires d >= 5")
    divisor = intersection_divisor(pf)
    pattern = multiplicity_pattern(divisor)
    g_compatible = divisor.degree == 3 and _annihilates(divisor, pf.g)
    if not g_compatible:
        return PerazzoClass(
            PerazzoCase.NON_MINIMAL, divisor, pattern, g_compatible, None
        )
    case = _PATTERN_TO_CASE[pattern]
    normalization = _normalization_from_roots(
        pf.vars, case, rational_roots(divisor)
    )
    return PerazzoClass(case, divisor, pattern, g_compatible, normalization)


def classify_polynomial(
    f: HomogeneousPoly, max_degree: int | None = None
) -> PerazzoClass:
    """classify() for a raw five-variable form; shape failures are a verdict."""
    try:
        pf = PerazzoForm.from_polynomial(f, max_degree=max_degree)
    except ValueError:
        return PerazzoClass(PerazzoCase.NOT_PERAZZO, None, None, False, None)
    return classify(pf)


def is_cone(f: HomogeneousPoly, max_degree: int | None = None) -> bool:
    """Whether the hypersurface f = 0 is a cone.

    Exact criterion: the first partial derivatives are linearly dependent,
    that is, the first catalecticant (whose columns are those partials) has
    rank below the number of variables.
    """
    ensure_desk_scale(f, max_degree)
    if f.is_zero():
        raise ValueError("the zero polynomial defines no hypersurface")
    if f.degree < 1:
        raise ValueError("cone detection needs degree >= 1")
    return catalecticant(f, 1, max_degree=max_degree).rank() < len(f.vars)


_RELATION_VARS = VariableSet(("z0", "z1", "z2"))


def algebraic_relation(
    p0: HomogeneousPoly,
    p1: HomogeneousPoly,
    p2: HomogeneousPoly,
    max_relation_degree: int | None = None,
) -> HomogeneousPoly | None:
    """Minimal-degree form F(z0, z1, z2) with F(p0, p1, p2) = 0.

    Solves, for e = 1, 2, ..., the linear system asking a degree-e form to
    vanish under substitution; the first nontrivial kernel wins.  Among the
    kernel basis the vector with the graded-lex-least leading monomial is
    returned, content-normalized with positive leading coefficient.  The
    default degree cap deg(p) always suffices for binary-form triples.
    """
    if len(p0.vars) != 2:
        raise ValueError("algebraic relations here are for binary forms")
    if p1.vars != p0.vars or p2.vars != p0.vars:
        raise ValueError("p0, p1, p2 must share one variable set")
    if p0.is_zero() or p1.is_zero() or p2.is_zero():
        raise ValueError("p0, p1, p2 must be nonzero")
    if p1.degree != p0.degree or p2.degree != p0.degree:
        raise ValueError("p0, p1, p2 must have equal degree")
    dp = p0.degree
    cap = max_relation_degree if max_relation_degree is not None else dp
    if cap < 1:
        raise ValueError("max_relation_degree must be at least 1")
    powers = []
    for p in (p0, p1, p2):
        table = [HomogeneousPoly(p.vars, 0, {(0, 0): Fraction(1)})]
        for _ in range(cap):
            table.append(table[-1] * p)
        powers.append(table)
    for e in range(1, cap + 1):
        zmons = monomials(3, e)
        cols = []
        for (e0, e1, e2) in zmons:
            q = powers[0][e0] * powers[1][e1] * powers[2][e2]
            cols.append(coeff_vector(q, descale=False))
        system = RationalMatrix(
            [[cols[c][r] for c in range(len(zmons))] for r in range(e * dp + 1)],
            ncols=len(zmons),
        )
        kernel = system.kernel_basis()
        if kernel:
            best = max(kernel, key=lambda v: next(i for i, x in enumerate(v) if x))
            terms = {zmons[i]: x for i, x in enumerate(best) if x}
            return HomogeneousPoly(_RELATION_VARS, e, terms)
    return None


def _binary_from_pairs(ring, degree, pairs) -> HomogeneousPoly:
    terms = {}
    for (eu, ev), coeff in pairs:
        if coeff:
            terms[(eu, ev)] = terms.get((eu, ev), Fraction(0)) + Fraction(coeff)
    return HomogeneousPoly(ring, degree, {e: c for e, c in terms.items() if c})


def osculating_family(
    d: int,
    g_coeffs=(0, 0, 0),
    vars: VariableSet | None = None,
    max_degree: int | None = None,
) -> PerazzoForm:
    """p = (u^(d-1), u^(d-2) v, u^(d-3) v^2), g in the span killed by V^3."""
    if d < 3:
        raise ValueError("families need d >= 3")
    ring = vars if vars is not None else binary_variables()
    ps = [
        HomogeneousPoly.monomial(ring, (d - 1 - j, j)) for j in range(3)
    ]
    g = _binary_from_pairs(
        ring, d, (((d - j, j), g_coeffs[j]) for j in range(3))
    )
    return PerazzoForm(ps[0], ps[1], ps[2], g, max_degree=max_degree)


def tangent_point_family(
    d: int,
    g_coeffs=(0, 0, 0),
    vars: VariableSet | None = None,
    max_degree: int | None = None,
) -> PerazzoForm:
    """p = (u^(d-1), u^(d-2) v, v^(d-1)), g in the span killed by U V^2."""
    if d < 3:
        raise ValueError("families need d >= 3")
    ring = vars if vars is not None else binary_variables()
    p0 = HomogeneousPoly.monomial(ring, (d - 1, 0))
    p1 = HomogeneousPoly.monomial(ring, (d - 2, 1))
    p2 = HomogeneousPoly.monomial(ring, (0, d - 1))
    g = _binary_from_pairs(
        ring,
        d,
        (
            ((d, 0), g_coeffs[0]),
            ((d - 1, 1), g_coeffs[1]),
            ((0, d), g_coeffs[2]),
        ),
    )
    return PerazzoForm(p0, p1, p2, g, max_degree=max_degree)


def three_points_family(
    d: int,
    lam: Fraction | int = 1,
    mu: Fraction | int = 1,
    g_coeffs=(0, 0, 0),
    vars: VariableSet | None = None,
    max_degree: int | None = None,
) -> PerazzoForm:
    """p = (u^(d-1), (lam u + mu v)^(d-1), v^(d-1)) with lam, mu nonzero."""
    if d < 3:
        raise ValueError("families need d >= 3")
    lam, mu = Fraction(lam), Fraction(mu)
    if not lam or not mu:
        raise ValueError("lam and mu must be nonzero")
    ring = vars if vars is not None else binary_variables()
    middle = HomogeneousPoly(ring, 1, {(1, 0): lam, (0, 1): mu})
    p0 = HomogeneousPoly.monomial(ring, (d - 1, 0))
    p1 = middle ** (d - 1)
    p2 = HomogeneousPoly.monomial(ring, (0, d - 1))
    g = (
        HomogeneousPoly.monomial(ring, (d, 0), g_coeffs[0])
        + (middle**d).scale(g_coeffs[1])
        + HomogeneousPoly.monomial(ring, (0, d), g_coeffs[2])
    )
    return PerazzoForm(p0, p1, p2, g, max_degree=max_degree)


def random_perazzo_form(
    d: int,
    seed: int = 0,
    bound: int = 9,
    with_g: bool = True,
    vars: VariableSet | None = None,
    max_degree: int | None = None,
) -> PerazzoForm:
    """Deterministic random Perazzo form: integer coefficients in [-bound, bound].

    Redraws until the three p_i are linearly independent, so the result is
    always a valid form for the given seed.
    """
    if d < 3:
        raise ValueError("Perazzo forms need degree d >= 3")
    if bound < 1:
        raise ValueError("bound must be at least 1")
    ring = vars if vars is not None else binary_variables()
    rng = random.Random(seed)

    def draw(degree: int) -> HomogeneousPoly:
        coeffs = [rng.randint(-bound, bound) for _ in range(degree + 1)]
        return _binary_from_pairs(
            ring, degree, (((degree - i, i), coeffs[i]) for i in range(degree + 1))
        )

    for _ in range(1000):
        ps = [draw(d - 1) for _ in range(3)]
        if any(p.is_zero() for p in ps):
            continue
        stacked = RationalMatrix(
            [coeff_vector(p, descale=False) for p in ps], ncols=d
        )
        if stacked.rank() == 3:
            g = draw(d) if with_g else HomogeneousPoly.zero(ring, d)
            return PerazzoForm(ps[0], ps[1], ps[2], g, max_degree=max_degree)
    raise InternalError("could not draw independent binary forms")
