"""Exact arithmetic for binary forms: gcd, squarefree tests, linear factors.

A binary form of degree e lives in a two-variable ring as a HomogeneousPoly;
its plain coefficient vector (q_0, ..., q_e) lists the coefficient of
u^{e-i} v^i at position i.  Every factorization question goes through one
dehomogenization, p -> (p(x, 1), power of v dividing p), and its inverse;
gcds, divisibility, linear factors, projective roots and the Waring witness
points in `forms` all read the same split.  Everything stays over the
rationals: gcds via the Euclidean algorithm, rational roots via Sturm counts
on integer intervals (polynomial in the degree and the coefficient bit
length), no floating point anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as int_gcd
from math import lcm

from .poly import HomogeneousPoly, apply_monomial_op, coeff_vector

__all__ = [
    "normalize_binary",
    "binary_partials",
    "binary_gcd",
    "binary_divides",
    "is_squarefree",
    "linear_factors",
    "rational_roots",
]


# Univariate layer: dense ascending coefficient lists over Fraction.


def _trim(p: list[Fraction]) -> list[Fraction]:
    while p and not p[-1]:
        p.pop()
    return p


def _udivmod(a: list[Fraction], b: list[Fraction]):
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    r = list(a)
    q = [Fraction(0)] * max(0, len(r) - len(b) + 1)
    while len(r) >= len(b):
        factor = r[-1] / b[-1]
        shift = len(r) - len(b)
        q[shift] = factor
        for i, bc in enumerate(b):
            r[shift + i] -= factor * bc
        r.pop()
        _trim(r)
        if not r:
            break
    return _trim(q), r


def _ugcd(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    a, b = _trim(list(a)), _trim(list(b))
    while b:
        a, b = b, _udivmod(a, b)[1]
    if a:
        lead = a[-1]
        a = [c / lead for c in a]
    return a


def _uderiv(p: list[Fraction]) -> list[Fraction]:
    return _trim([p[j] * j for j in range(1, len(p))])


def _ueval(p: list, x):
    acc = 0
    for c in reversed(p):
        acc = acc * x + c
    return acc


def _integerize(p: list[Fraction]) -> list[int]:
    den = lcm(*(c.denominator for c in p))
    ints = [c.numerator * (den // c.denominator) for c in p]
    g = int_gcd(*ints)
    return [c // g for c in ints] if g else ints


def _sign_changes(seq: list[list[int]], x: int) -> int:
    """Sign changes of the sequence of values at x, zeros skipped."""
    changes, last = 0, 0
    for poly in seq:
        value = _ueval(poly, x)
        if value:
            changes += last * value < 0
            last = value
    return changes


def _monic_integer_roots(q: list[int], bound: int) -> list[int]:
    """Integer roots y, |y| < bound, of a square-free monic integer polynomial.

    Sturm's theorem counts the distinct real roots in (a, b] as the drop in
    sign changes of the Sturm sequence from a to b.  Integer intervals are
    halved while they hold a root; a root-holding interval of width one holds
    the integer root b or none.  The number of evaluations is the number of
    real roots times the bit length of the bound.
    """
    seq = [q, _integerize(_uderiv(q))]
    while len(seq[-1]) > 1:
        remainder = _udivmod([Fraction(c) for c in seq[-2]], seq[-1])[1]
        seq.append([-c for c in _integerize(remainder)])
    roots = []
    stack = [(-bound, bound, _sign_changes(seq, -bound), _sign_changes(seq, bound))]
    while stack:
        lo, hi, v_lo, v_hi = stack.pop()
        if v_lo == v_hi:
            continue
        if hi - lo == 1:
            if not _ueval(q, hi):
                roots.append(hi)
            continue
        mid = (lo + hi) // 2
        v_mid = _sign_changes(seq, mid)
        stack += [(mid, hi, v_mid, v_hi), (lo, mid, v_lo, v_mid)]
    return roots


def _urational_roots(p: list[Fraction]):
    """All rational roots with multiplicity, plus the rootless cofactor.

    The distinct rational roots are those of the square-free part s of
    degree k and leading coefficient c: they are y/c for the integer roots y
    of the monic c^(k-1) s(y/c).  Each root is then divided out as often as
    it divides.  Roots come in the order of (|numerator|, denominator, sign).
    """
    p = _trim(list(p))
    roots: list[tuple[Fraction, int]] = []
    zero_mult = 0
    while p and not p[0]:
        p = p[1:]
        zero_mult += 1
    if zero_mult:
        roots.append((Fraction(0), zero_mult))
    if len(p) > 1:
        square_free = _integerize(_udivmod(p, _ugcd(p, _uderiv(p)))[0])
        c, k = square_free[-1], len(square_free) - 1
        monic = [a * c ** (k - 1 - i) for i, a in enumerate(square_free[:-1])] + [1]
        # Cauchy: every root x of s has |x| < 1 + max |s_i / c|, so |y| < bound.
        bound = abs(c) + max(map(abs, square_free[:-1]))
        found = sorted(
            (Fraction(y, c) for y in _monic_integer_roots(monic, bound)),
            key=lambda r: (abs(r.numerator), r.denominator, r < 0),
        )
        for root in found:
            mult = 0
            while len(p) > 1 and not _ueval(p, root):
                p = _udivmod(p, [-root, Fraction(1)])[0]
                mult += 1
            roots.append((root, mult))
    return roots, p


# Binary layer.


def _binary_check(p: HomogeneousPoly) -> None:
    if len(p.vars) != 2:
        raise ValueError("expected a binary form")


def _to_univariate(p: HomogeneousPoly) -> tuple[list[Fraction], int]:
    """Ascending coefficients of p(x, 1) and the power of v dividing p."""
    uni = _trim(list(reversed(coeff_vector(p, descale=False))))
    return uni, p.degree + 1 - len(uni)


def _from_univariate(ring, uni: list[Fraction], v_power: int) -> HomogeneousPoly:
    k = len(uni) - 1
    terms = {(j, k - j + v_power): c for j, c in enumerate(uni) if c}
    return HomogeneousPoly(ring, k + v_power, terms)


def normalize_binary(p: HomogeneousPoly) -> HomogeneousPoly:
    """Scale to coprime integer coefficients with positive leading one."""
    _binary_check(p)
    if p.is_zero():
        return p
    den = lcm(*(c.denominator for c in p.terms.values()))
    g = int_gcd(*(c.numerator * (den // c.denominator) for c in p.terms.values()))
    scaled = p.scale(Fraction(den, g))
    if scaled.terms[scaled.leading_monomial()] < 0:
        scaled = -scaled
    return scaled


def binary_partials(p: HomogeneousPoly):
    """Both first partial derivatives, as forms of one degree less."""
    _binary_check(p)
    if p.degree == 0:
        raise ValueError("cannot differentiate a degree-0 form meaningfully")
    return apply_monomial_op((1, 0), p), apply_monomial_op((0, 1), p)


def binary_gcd(p: HomogeneousPoly, q: HomogeneousPoly) -> HomogeneousPoly:
    """Greatest common divisor, normalized to primitive integer form."""
    _binary_check(p)
    _binary_check(q)
    if p.is_zero() and q.is_zero():
        raise ValueError("gcd(0, 0) is undefined")
    if p.is_zero():
        return normalize_binary(q)
    if q.is_zero():
        return normalize_binary(p)
    (up, sp), (uq, sq) = _to_univariate(p), _to_univariate(q)
    g = _ugcd(up, uq)
    return normalize_binary(_from_univariate(p.vars, g, min(sp, sq)))


def binary_divides(q: HomogeneousPoly, p: HomogeneousPoly) -> bool:
    """Whether q divides p in the binary polynomial ring."""
    _binary_check(p)
    _binary_check(q)
    if q.is_zero():
        raise ValueError("division by the zero form")
    if p.is_zero():
        return True
    if q.degree > p.degree:
        return False
    (up, sp), (uq, sq) = _to_univariate(p), _to_univariate(q)
    return sq <= sp and not _udivmod(up, uq)[1]


def is_squarefree(p: HomogeneousPoly) -> bool:
    """No repeated root over the algebraic closure (constants count as yes)."""
    _binary_check(p)
    if p.is_zero():
        raise ValueError("squarefreeness of the zero form is undefined")
    if p.degree <= 1:
        return True
    pu, pv = binary_partials(p)
    return binary_gcd(pu, pv).degree == 0


def _split(p: HomogeneousPoly):
    """v-power of p, rational roots of p(x, 1), rootless cofactor, p(x, 1)."""
    _binary_check(p)
    if p.is_zero():
        raise ValueError("cannot factor the zero form")
    uni, s = _to_univariate(p)
    roots, cofactor = _urational_roots(uni)
    return s, roots, cofactor, uni


def linear_factors(p: HomogeneousPoly):
    """Split off every rational linear factor.

    Returns (scalar, factors, remainder): factors is a list of
    (primitive linear form, multiplicity) pairs with distinct forms,
    remainder is the rootless cofactor of degree >= 2 or None, and
    p = scalar * prod(form^mult) * remainder exactly.
    """
    s, roots, cofactor, uni = _split(p)
    ring = p.vars
    factors = [(HomogeneousPoly.variable(ring, 1), s)] if s else []
    # p(x, 1) = scalar * prod (den x - num)^mult * remainder(x, 1): compare leads
    scalar = uni[-1]
    for root, mult in roots:
        num, den = root.numerator, root.denominator
        form = HomogeneousPoly(ring, 1, {(1, 0): den, (0, 1): -num})
        factors.append((form, mult))
        scalar /= den**mult
    remainder = None
    if len(cofactor) > 1:
        remainder = normalize_binary(_from_univariate(ring, cofactor, 0))
        scalar /= remainder.coefficient((remainder.degree, 0))
    return scalar, factors, remainder


def rational_roots(p: HomogeneousPoly) -> list[tuple[tuple[int, int], int]] | None:
    """Projective rational roots (a, b) with multiplicity, or None.

    Returns the full root list only when p splits completely into rational
    linear factors; each root is normalized with positive first nonzero
    coordinate and satisfies p(a, b) = 0.  Root k is the root of factor k
    of linear_factors(p).
    """
    s, roots, cofactor, _ = _split(p)
    if len(cofactor) > 1:
        return None
    # den u - num v vanishes at (num, den), already coprime with den > 0
    out = [((1, 0), s)] if s else []
    for root, mult in roots:
        num, den = root.numerator, root.denominator
        out.append(((num, den) if num >= 0 else (-num, -den), mult))
    return out
