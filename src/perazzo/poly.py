"""Homogeneous polynomials over Q with an apolarity (differentiation) action.

Two graded polynomial rings appear throughout: a base ring R (variables such as
x0, x1, x2, u, v) whose elements are the forms under study, and the dual ring S
of differential operators (y0, y1, y2, U, V) acting on R by partial
differentiation.  `VariableSet` records the variable names of one side together
with the names of its dual; `HomogeneousPoly` is a sparse exact-coefficient
homogeneous polynomial over one side.

Monomials are plain exponent tuples, ordered graded-lexicographically: higher
total degree first, then lexicographic comparison of the exponent tuples (so
with variables (u, v) the degree-2 monomials descend u^2 > u*v > v^2).  Every
enumeration, rendering, and pivot choice in the package uses this one order.

A zero polynomial still carries a degree tag so that graded maps have
well-typed codomains.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

__all__ = [
    "VariableSet",
    "HomogeneousPoly",
    "binary_variables",
    "perazzo_variables",
    "monomials",
    "monomial_count",
    "apply_monomial_op",
    "coeff_vector",
    "random_binary_form",
]

ROLE_X = "x-block"
ROLE_UV = "uv-block"
ROLE_PLAIN = "plain"
_ROLES = (ROLE_X, ROLE_UV, ROLE_PLAIN)


def _default_dual_name(name: str) -> str:
    if name and name[0] == "x" and name[1:].isdigit():
        return "y" + name[1:]
    if len(name) == 1 and name.isalpha() and name.islower():
        return name.upper()
    return "d" + name


@dataclass(frozen=True)
class VariableSet:
    """Ordered variable names of one ring, paired with the dual ring's names.

    `roles` tags each variable as part of the linear block ("x-block"), the
    binary block ("uv-block"), or neither ("plain"); the Perazzo machinery
    uses the tags to split a form into its x-linear and u,v parts.
    """

    names: tuple[str, ...]
    roles: tuple[str, ...] = ()
    dual_names: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        names = tuple(self.names)
        roles = tuple(self.roles) if self.roles else (ROLE_PLAIN,) * len(names)
        duals = tuple(self.dual_names) if self.dual_names else tuple(
            _default_dual_name(n) for n in names
        )
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate variable names: {names}")
        if len(roles) != len(names) or len(duals) != len(names):
            raise ValueError("names, roles and dual_names must have equal length")
        for r in roles:
            if r not in _ROLES:
                raise ValueError(f"unknown variable role {r!r}")
        if len(set(duals)) != len(duals):
            raise ValueError(f"duplicate dual names: {duals}")
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "roles", roles)
        object.__setattr__(self, "dual_names", duals)

    def __len__(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        return self.names.index(name)

    def dual(self) -> "VariableSet":
        """The operator-side variable set (an involution)."""
        return VariableSet(self.dual_names, self.roles, self.names)

    def block_indices(self, role: str) -> tuple[int, ...]:
        return tuple(i for i, r in enumerate(self.roles) if r == role)

    def __repr__(self) -> str:
        return f"VariableSet({', '.join(self.names)})"


def perazzo_variables() -> VariableSet:
    """The standard five-variable ring K[x0, x1, x2, u, v]."""
    return VariableSet(
        ("x0", "x1", "x2", "u", "v"),
        (ROLE_X, ROLE_X, ROLE_X, ROLE_UV, ROLE_UV),
    )


def binary_variables(names: tuple[str, str] = ("u", "v")) -> VariableSet:
    """A two-variable ring, tagged as the binary block."""
    return VariableSet(tuple(names), (ROLE_UV, ROLE_UV))


def monomials(nvars: int, degree: int) -> list[tuple[int, ...]]:
    """All exponent tuples of the given total degree, graded-lex descending."""
    if nvars == 0:
        return [()] if degree == 0 else []
    if nvars == 1:
        return [(degree,)]
    out = []
    for first in range(degree, -1, -1):
        for rest in monomials(nvars - 1, degree - first):
            out.append((first,) + rest)
    return out


def monomial_count(nvars: int, degree: int) -> int:
    return math.comb(nvars + degree - 1, degree)


def _grlex_key(exps: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    return (sum(exps), exps)


class HomogeneousPoly:
    """A homogeneous polynomial with exact rational coefficients.

    Immutable once constructed.  `terms` maps exponent tuples to nonzero
    Fractions; the zero polynomial has an empty map and keeps its degree tag.
    """

    __slots__ = ("vars", "degree", "terms")

    def __init__(
        self,
        vars: VariableSet,
        degree: int,
        terms: dict[tuple[int, ...], Fraction | int] | None = None,
    ):
        if degree < 0:
            raise ValueError(f"degree must be nonnegative, got {degree}")
        clean: dict[tuple[int, ...], Fraction] = {}
        for exps, coeff in (terms or {}).items():
            exps = tuple(exps)
            if len(exps) != len(vars) or any(e < 0 for e in exps):
                raise ValueError(f"bad exponent tuple {exps} for {vars}")
            if sum(exps) != degree:
                raise ValueError(
                    f"non-homogeneous term {exps}: degree {sum(exps)} != {degree}"
                )
            c = Fraction(coeff)
            if c:
                clean[exps] = c
        object.__setattr__(self, "vars", vars)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("HomogeneousPoly is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, vars: VariableSet, degree: int) -> "HomogeneousPoly":
        return cls(vars, degree, {})

    @classmethod
    def monomial(
        cls,
        vars: VariableSet,
        exps: Sequence[int],
        coeff: Fraction | int = 1,
    ) -> "HomogeneousPoly":
        exps = tuple(exps)
        return cls(vars, sum(exps), {exps: coeff})

    @classmethod
    def variable(cls, vars: VariableSet, index: int) -> "HomogeneousPoly":
        exps = tuple(1 if i == index else 0 for i in range(len(vars)))
        return cls(vars, 1, {exps: 1})

    # -- predicates and access --------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, exps: Sequence[int]) -> Fraction:
        return self.terms.get(tuple(exps), Fraction(0))

    def leading_monomial(self) -> tuple[int, ...]:
        if not self.terms:
            raise ValueError("zero polynomial has no leading monomial")
        return max(self.terms, key=_grlex_key)

    def sorted_terms(self) -> list[tuple[tuple[int, ...], Fraction]]:
        return sorted(self.terms.items(), key=lambda t: _grlex_key(t[0]), reverse=True)

    def variables_used(self) -> tuple[int, ...]:
        used = [False] * len(self.vars)
        for exps in self.terms:
            for i, e in enumerate(exps):
                if e:
                    used[i] = True
        return tuple(i for i, u in enumerate(used) if u)

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, HomogeneousPoly):
            return NotImplemented
        return (
            self.vars == other.vars
            and self.degree == other.degree
            and self.terms == other.terms
        )

    __hash__ = None  # mutable-dict payload; equality is structural

    # -- arithmetic --------------------------------------------------------

    def _check_compatible(self, other: "HomogeneousPoly") -> None:
        if self.vars != other.vars:
            raise ValueError(f"variable sets differ: {self.vars} vs {other.vars}")

    def __add__(self, other: "HomogeneousPoly") -> "HomogeneousPoly":
        self._check_compatible(other)
        if self.degree != other.degree:
            raise ValueError(
                f"cannot add forms of degrees {self.degree} and {other.degree}"
            )
        terms = dict(self.terms)
        for exps, c in other.terms.items():
            s = terms.get(exps, Fraction(0)) + c
            if s:
                terms[exps] = s
            else:
                terms.pop(exps, None)
        return HomogeneousPoly(self.vars, self.degree, terms)

    def __neg__(self) -> "HomogeneousPoly":
        return HomogeneousPoly(
            self.vars, self.degree, {e: -c for e, c in self.terms.items()}
        )

    def __sub__(self, other: "HomogeneousPoly") -> "HomogeneousPoly":
        return self + (-other)

    def scale(self, scalar: Fraction | int) -> "HomogeneousPoly":
        s = Fraction(scalar)
        if not s:
            return HomogeneousPoly.zero(self.vars, self.degree)
        return HomogeneousPoly(
            self.vars, self.degree, {e: c * s for e, c in self.terms.items()}
        )

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, HomogeneousPoly):
            return NotImplemented
        self._check_compatible(other)
        terms: dict[tuple[int, ...], Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = terms.get(e, Fraction(0)) + c1 * c2
                if s:
                    terms[e] = s
                else:
                    terms.pop(e, None)
        return HomogeneousPoly(self.vars, self.degree + other.degree, terms)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def __pow__(self, n: int) -> "HomogeneousPoly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = HomogeneousPoly(self.vars, 0, {(0,) * len(self.vars): 1})
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def evaluate(self, values: Sequence[Fraction | int]) -> Fraction:
        if len(values) != len(self.vars):
            raise ValueError("wrong number of values")
        vals = [Fraction(v) for v in values]
        total = Fraction(0)
        for exps, c in self.terms.items():
            prod = c
            for v, e in zip(vals, exps):
                if e:
                    prod *= v**e
            total += prod
        return total

    # -- rendering ---------------------------------------------------------

    def render(self) -> str:
        """Canonical text form: graded-lex term order, explicit '*' and '^'."""
        if not self.terms:
            return "0"
        pieces: list[str] = []
        for exps, coeff in self.sorted_terms():
            factors = [
                f"{name}^{e}" if e > 1 else name
                for name, e in zip(self.vars.names, exps)
                if e
            ]
            mag = abs(coeff)
            if not factors:
                body = str(mag)
            elif mag == 1:
                body = "*".join(factors)
            else:
                body = "*".join([str(mag)] + factors)
            if not pieces:
                pieces.append(body if coeff > 0 else "-" + body)
            else:
                pieces.append(("+ " if coeff > 0 else "- ") + body)
        return " ".join(pieces)

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"<{self.render()} : degree {self.degree} in {self.vars!r}>"


# -- apolarity -------------------------------------------------------------


def apply_monomial_op(
    exps: tuple[int, ...], f: HomogeneousPoly
) -> HomogeneousPoly:
    """Apply the single differential monomial with the given exponents to f.

    The operator lives in the dual ring; exps indexes the same positions as
    f's variables.  Exact partial differentiation: each variable power e' is
    lowered by e with multiplier e'!/(e'-e)!.
    """
    t = sum(exps)
    if t > f.degree:
        return HomogeneousPoly.zero(f.vars, 0)
    terms: dict[tuple[int, ...], Fraction] = {}
    for fe, c in f.terms.items():
        coeff = c
        out = []
        for a, b in zip(fe, exps):
            if a < b:
                coeff = None
                break
            out.append(a - b)
            if b:
                coeff *= math.perm(a, b)
        if coeff is None:
            continue
        key = tuple(out)
        s = terms.get(key, Fraction(0)) + coeff
        if s:
            terms[key] = s
        else:
            terms.pop(key, None)
    return HomogeneousPoly(f.vars, f.degree - t, terms)


# -- binary-form helpers -----------------------------------------------------


def _binary_pair(p: HomogeneousPoly) -> tuple[int, int]:
    """Indices of the two binary-block variables p is allowed to use."""
    if len(p.vars) == 2:
        return (0, 1)
    uv = p.vars.block_indices(ROLE_UV)
    if len(uv) != 2:
        raise ValueError(
            f"{p.vars} has no two-variable binary block to read coefficients from"
        )
    allowed = set(uv)
    for i in p.variables_used():
        if i not in allowed:
            raise ValueError(
                f"form involves {p.vars.names[i]}, outside the binary block"
            )
    return (uv[0], uv[1])


def coeff_vector(p: HomogeneousPoly, descale: bool = False) -> tuple[Fraction, ...]:
    """Coefficients of a binary form, highest u-power first.

    Entry i is the coefficient of u^(e-i) v^i; with descale=True it is divided
    by binomial(e, i), the convention the Hankel block matrices are built on.
    """
    iu, iv = _binary_pair(p)
    e = p.degree
    out = [Fraction(0)] * (e + 1)
    for exps, c in p.terms.items():
        i = exps[iv]
        out[i] = c / math.comb(e, i) if descale else c
    return tuple(out)


def binary_form_from_coeffs(
    coeffs: Sequence[Fraction | int],
    vars: VariableSet | None = None,
    descaled: bool = False,
) -> HomogeneousPoly:
    """Inverse of coeff_vector over a two-variable ring."""
    vars = vars or binary_variables()
    if len(vars) != 2:
        raise ValueError("binary form needs a two-variable ring")
    e = len(coeffs) - 1
    terms: dict[tuple[int, ...], Fraction] = {}
    for i, c in enumerate(coeffs):
        c = Fraction(c)
        if descaled:
            c *= math.comb(e, i)
        if c:
            terms[(e - i, i)] = c
    return HomogeneousPoly(vars, e, terms)


def random_binary_form(
    degree: int,
    bound: int = 100,
    seed: int = 0,
    vars: VariableSet | None = None,
) -> HomogeneousPoly:
    """Seeded binary form with integer coefficients uniform in [-bound, bound]."""
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    if bound < 1:
        raise ValueError("bound must be positive")
    rng = random.Random(seed)
    coeffs = [rng.randint(-bound, bound) for _ in range(degree + 1)]
    return binary_form_from_coeffs(coeffs, vars=vars)
