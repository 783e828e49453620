"""Facts the benchmark checks program outputs against, computed apart from it.

Nothing here imports perazzo.  Each check returns a list of problems; an
empty list means the output passed.
"""

from __future__ import annotations

import math


def max_h(d: int) -> tuple[int, ...]:
    """Largest Perazzo h-vector in degree d: min(4i+1, 4(d-i)+1, d+2)."""
    return tuple(min(4 * i + 1, 4 * (d - i) + 1, d + 2) for i in range(d + 1))


def min_h(d: int) -> tuple[int, ...]:
    """Smallest Perazzo h-vector in degree d: (1, 5, 6, ..., 6, 5, 1)."""
    return (1, 5) + (6,) * (d - 3) + (5, 1)


def macaulay_bound(a: int, i: int) -> int:
    """a^<i>: write a = sum C(k_j, j), j = i, i-1, ..., and raise every k_j and j."""
    bound, j = 0, i
    while a > 0 and j > 0:
        k = j
        while math.comb(k + 1, j) <= a:
            k += 1
        a -= math.comb(k, j)
        bound += math.comb(k + 1, j + 1)
        j -= 1
    return bound


def check_h(h, d: int) -> list[str]:
    """h is a symmetric O-sequence of length d+1 inside the extremal bounds."""
    h = tuple(h)
    if len(h) != d + 1:
        return [f"h {h} has length {len(h)}, expected {d + 1}"]
    problems = []
    if h != h[::-1]:
        problems.append(f"h {h} is not symmetric")
    if h[0] != 1 or any(h[i + 1] > macaulay_bound(h[i], i) for i in range(1, d)):
        problems.append(f"h {h} is not an O-sequence")
    lo, hi = min_h(d), max_h(d)
    if any(not lo[i] <= h[i] <= hi[i] for i in range(d + 1)):
        problems.append(f"h {h} leaves the bounds {lo} .. {hi}")
    return problems


def check_exact(h, exact) -> list[str]:
    """The catalecticant h equals the block-rank h wherever that is exact."""
    if exact is not None and tuple(h) != tuple(exact):
        return [f"h {tuple(h)} differs from the block-rank h {tuple(exact)}"]
    return []


def check_wlp(h, d: int, holds: bool) -> list[str]:
    """Maximal h fails the weak Lefschetz property; minimal h has it."""
    h = tuple(h)
    if h == max_h(d) and holds:
        return [f"maximal h {h} reported with WLP"]
    if h == min_h(d) and not holds:
        return [f"minimal h {h} reported without WLP"]
    return []


def check_case(found: str, built: str) -> list[str]:
    if found != built:
        return [f"classified as {found!r}, built as {built!r}"]
    return []


# -- divisor roots --------------------------------------------------------------


def normalize_point(s: int, t: int) -> tuple[int, int]:
    """Primitive integer pair with positive first nonzero coordinate."""
    g = math.gcd(s, t)
    s, t = s // g, t // g
    if s < 0 or (s == 0 and t < 0):
        s, t = -s, -t
    return s, t


def moved_points(points: dict, m) -> dict:
    """Images of the points (s, t) of the power curve under u, v -> m.

    Substituting u -> a u + b v, v -> c u + e v sends (s u + t v)^k to
    ((a s + c t) u + (b s + e t) v)^k, so the point (s, t) moves to
    (a s + c t, b s + e t).
    """
    (a, b), (c, e) = m
    return {normalize_point(a * s + c * t, b * s + e * t): mult for (s, t), mult in points.items()}


def _poly_mul(p: list[int], q: list[int]) -> list[int]:
    out = [0] * (len(p) + len(q) - 1)
    for i, x in enumerate(p):
        for j, y in enumerate(q):
            out[i + j] += x * y
    return out


def divisor_from_points(points: dict) -> list[int]:
    """Coefficients (s^k first) of the product of (t0 s - s0 t)^m over the points."""
    out = [1]
    for (s0, t0), mult in points.items():
        for _ in range(mult):
            out = _poly_mul(out, [t0, -s0])
    return out


def check_roots(roots, divisor_coeffs, expected: dict) -> list[str]:
    """The program's roots and its divisor both match the expected points.

    `roots` is a list of ((s, t), multiplicity) pairs or None; the divisor is
    compared up to a nonzero scalar with the product over the expected points.
    """
    problems = []
    found = None if roots is None else {tuple(p): m for p, m in roots}
    if found != expected:
        problems.append(f"divisor roots {found} differ from {expected}")
    want = divisor_from_points(expected)
    got = list(divisor_coeffs)
    if len(got) != len(want) or any(
        got[i] * want[j] != got[j] * want[i] for i in range(len(want)) for j in range(len(want))
    ) or not any(got):
        problems.append(f"divisor {got} is not proportional to {want}")
    return problems


# -- survey reports ------------------------------------------------------------


def check_survey(exit_code: int, report, degrees, samples: int) -> list[str]:
    """Exit 0, one record per task, no bound violations, every SLP verdict
    false (Perazzo forms have vanishing Hessian), and the per-record facts."""
    if exit_code != 0:
        return [f"survey exited {exit_code}"]
    results = report["results"]
    records = results["records"]
    tasks = sorted((r["degree"], r["index"]) for r in records)
    want = [(d, i) for d in degrees for i in range(samples)]
    problems = []
    if tasks != want:
        problems.append(f"survey records {tasks} differ from tasks {want}")
    if results["bound_violations"] != 0:
        problems.append(f"survey reports {results['bound_violations']} bound violations")
    for r in records:
        if r["slp"] is not False:
            problems.append(f"degree {r['degree']} sample {r['index']} reported with SLP")
        problems += check_h(r["h"], r["degree"])
        problems += check_wlp(r["h"], r["degree"], r["wlp"])
    return problems
