"""The four workloads: inputs made from the seed, one timed round, the checks.

A round takes every input through the workload's pipeline once.  The program
receives only the generated forms (or, for the survey, its seed); everything
the checks compare against comes from `checks`, from the way the inputs were
built, or from a second independent path of the program (block ranks against
catalecticant ranks).
"""

from __future__ import annotations

import json
import math
import os
import random
import resource
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from perazzo import binary, forms, inverse_systems, lefschetz
from perazzo.poly import HomogeneousPoly

import checks
import spans

_NONZERO = (-2, -1, 1, 2)


@dataclass
class Round:
    """Timings, outputs and (traced) layer statistics of one round.

    `wall_s` and `top_s` are read from the host clock (seconds at the
    reference host speed, see `hostclock`); `raw_wall_s` is plain wall time.
    """

    wall_s: float
    top_s: float
    outputs: list
    layers: dict | None = None
    child_cpu_s: float = 0.0
    raw_wall_s: float = 0.0


def _rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


# -- inputs ---------------------------------------------------------------------


def maximal_form(tag: str, seed: int, d: int):
    """First seeded random Perazzo form whose block-rank lower bound, hence
    its h-vector, is the maximal one."""
    rng = random.Random(f"{tag}:{seed}:{d}")
    while True:
        pf = forms.random_perazzo_form(d, seed=rng.randrange(2**32))
        if tuple(forms.h_via_ranks(pf).lower) == checks.max_h(d):
            return pf


def substitute(p: HomogeneousPoly, m) -> HomogeneousPoly:
    """p(a u + b v, c u + e v) for m = ((a, b), (c, e))."""
    (a, b), (c, e) = m
    k = p.degree
    out = [Fraction(0)] * (k + 1)  # index j holds the u^(k-j) v^j coefficient
    for (i, j), coeff in p.terms.items():
        left = [math.comb(i, r) * a ** (i - r) * b**r for r in range(i + 1)]
        right = [math.comb(j, r) * c ** (j - r) * e**r for r in range(j + 1)]
        for r1, x in enumerate(left):
            for r2, y in enumerate(right):
                out[r1 + r2] += coeff * x * y
    return HomogeneousPoly(p.vars, k, {(k - j, j): x for j, x in enumerate(out) if x})


def minimal_form(seed: int, d: int, family: str):
    """A minimal family member moved by a seeded invertible change of (u, v).

    Every entry of the change is nonzero, so the moved form is dense in
    (u, v) and its divisor has roots away from (1, 0) and (0, 1).  Returns the
    form and the expected divisor roots with multiplicities.
    """
    rng = random.Random(f"minimal-classify:{seed}:{d}:{family}")
    g = [rng.randint(-4, 4) for _ in range(3)]
    if family == "osculating-plane":
        base = forms.osculating_family(d, g_coeffs=g)
        points = {(1, 0): 3}
    elif family == "tangent-plane-and-point":
        base = forms.tangent_point_family(d, g_coeffs=g)
        points = {(1, 0): 2, (0, 1): 1}
    else:
        lam, mu = rng.choice(_NONZERO), rng.choice(_NONZERO)
        base = forms.three_points_family(d, lam, mu, g_coeffs=g)
        points = {(1, 0): 1, (lam, mu): 1, (0, 1): 1}
    while True:
        m = ((rng.choice(_NONZERO), rng.choice(_NONZERO)),
             (rng.choice(_NONZERO), rng.choice(_NONZERO)))
        if m[0][0] * m[1][1] != m[0][1] * m[1][0]:
            break
    moved = forms.PerazzoForm(*(substitute(p, m) for p in (base.p0, base.p1, base.p2, base.g)))
    return moved, checks.moved_points(points, m)


# -- in-process workloads ---------------------------------------------------------


class Item:
    """One generated form and what the benchmark knows about how it was built."""

    def __init__(self, d, pf, label, expected_roots=None):
        self.d = d
        self.pf = pf
        self.f = pf.to_polynomial()
        self.label = label
        self.expected_roots = expected_roots


class InProcess:
    """A batch of forms timed inside this process; subclasses give the steps."""

    ops_per_item = 1

    def __init__(self, items):
        self.items = items
        self.top = max(it.d for it in items)

    @property
    def ops_per_round(self) -> int:
        return self.ops_per_item * len(self.items)

    def run_round(self, tracer, clock) -> Round:
        if tracer is not None:
            tracer.reset()
            tracer.active = True
        outputs, wall, top = [], 0.0, 0.0
        raw_started = time.perf_counter()
        try:
            for it in self.items:
                started = clock.now()
                out = self.steps(it)
                elapsed = clock.now() - started
                outputs.append(out)
                wall += elapsed
                if it.d == self.top:
                    top += elapsed
        finally:
            if tracer is not None:
                tracer.active = False
        layers = tracer.snapshot() if tracer is not None else None
        return Round(wall, top, outputs, layers, raw_wall_s=time.perf_counter() - raw_started)

    def peak_rss_mb(self) -> float:
        return _rss_mb(resource.RUSAGE_SELF)

    def check(self, outputs) -> list[str]:
        problems = []
        for it, out in zip(self.items, outputs):
            problems += checks.check_h(out["h"], it.d)
            exact = out["exact"] if "exact" in out else forms.h_via_ranks(it.pf).exact
            problems += checks.check_exact(out["h"], exact)
            if "wlp" in out:
                problems += checks.check_wlp(out["h"], it.d, out["wlp"])
            problems += self.check_item(it, out)
        return problems

    def check_item(self, it, out) -> list[str]:
        return []


class WlpMaximal(InProcess):
    """Maximal-h forms through h_vector and has_wlp: the failing WLP path."""

    degrees = (6, 7, 8)
    ops_per_item = 2

    def __init__(self, seed):
        super().__init__(
            [Item(d, maximal_form("wlp-maximal", seed, d), "maximal") for d in self.degrees]
        )

    def steps(self, it):
        h = inverse_systems.h_vector(it.f)
        verdict = lefschetz.has_wlp(it.f)
        return {"h": h.entries, "wlp": verdict.holds}

    def check_item(self, it, out):
        if tuple(out["h"]) != checks.max_h(it.d):
            return [f"degree {it.d}: built maximal, got h {out['h']}"]
        return []


class MinimalClassify(InProcess):
    """The three minimal families under coordinate changes: classify,
    block ranks, h_vector and has_wlp, the passing WLP path."""

    degrees = (5, 7, 9)
    families = ("osculating-plane", "tangent-plane-and-point", "three-distinct-points")
    ops_per_item = 4

    def __init__(self, seed):
        items = []
        for d in self.degrees:
            for family in self.families:
                pf, roots = minimal_form(seed, d, family)
                items.append(Item(d, pf, family, roots))
        super().__init__(items)

    def steps(self, it):
        verdict = forms.classify(it.pf)
        roots = binary.rational_roots(verdict.divisor)
        exact = forms.h_via_ranks(it.pf).exact
        h = inverse_systems.h_vector(it.f)
        wlp = lefschetz.has_wlp(it.f)
        k = verdict.divisor.degree
        return {
            "case": verdict.case.value,
            "roots": roots,
            "divisor": [verdict.divisor.coefficient((k - i, i)) for i in range(k + 1)],
            "exact": None if exact is None else exact.entries,
            "h": h.entries,
            "wlp": wlp.holds,
        }

    def check_item(self, it, out):
        problems = checks.check_case(out["case"], it.label)
        problems += checks.check_roots(out["roots"], out["divisor"], it.expected_roots)
        if tuple(out["h"]) != checks.min_h(it.d):
            problems.append(f"degree {it.d} {it.label}: built minimal, got h {out['h']}")
        return problems


class HvectorHighDegree(InProcess):
    """h_vector alone on sparse forms of high degree: assembly and elimination."""

    degrees = (12, 14)

    def __init__(self, seed):
        items = []
        for d in self.degrees:
            items.append(Item(d, maximal_form("hvector-high-degree", seed, d), "maximal"))
            rng = random.Random(f"hvector-high-degree:{seed}:{d}:tangent")
            g = [rng.randint(-4, 4) for _ in range(3)]
            items.append(Item(d, forms.tangent_point_family(d, g_coeffs=g), "minimal"))
        super().__init__(items)

    def steps(self, it):
        return {"h": inverse_systems.h_vector(it.f).entries}

    def check_item(self, it, out):
        want = checks.max_h(it.d) if it.label == "maximal" else checks.min_h(it.d)
        if tuple(out["h"]) != want:
            return [f"degree {it.d}: built {it.label}, got h {out['h']}"]
        return []


# -- the survey front end -----------------------------------------------------------


class SurveyCli:
    """`perazzo survey` as a subprocess over a degree range, then once more
    for the top degree alone; the process pool runs `--jobs` workers.

    The top-degree invocation takes twice the samples: each seed draws
    different forms, and two forms alone left its time dependent on which.
    """

    degrees = (5, 6, 7)
    samples = 2
    top_samples = 4

    def __init__(self, seed, root: Path, trace_dir: Path):
        self.seed = seed
        self.root = root
        self.trace_dir = trace_dir
        self.jobs = min(2, os.cpu_count() or 1)
        self.invocations = [  # (degrees, --degrees text, --samples)
            (list(self.degrees), f"{self.degrees[0]}..{self.degrees[-1]}", self.samples),
            ([self.degrees[-1]], str(self.degrees[-1]), self.top_samples),
        ]
        self.ops_per_round = sum(len(ds) * n for ds, _, n in self.invocations)

    def _command(self, degree_text: str, samples: int, trace_out: Path | None) -> list[str]:
        args = ["survey", "--degrees", degree_text, "--samples", str(samples),
                "--jobs", str(self.jobs), "--seed", str(self.seed), "--format", "json"]
        if trace_out is None:
            return [sys.executable, "-m", "perazzo.cli"] + args
        child = Path(__file__).resolve().parent / "survey_child.py"
        return [sys.executable, str(child), str(trace_out)] + args

    def _invoke(self, command: list[str], clock):
        env = dict(os.environ)
        src = str(self.root / "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        cpu_before = resource.getrusage(resource.RUSAGE_CHILDREN)
        started = clock.now()
        raw_started = time.perf_counter()
        proc = subprocess.Popen(command, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                env=env, cwd=self.root, start_new_session=True)
        try:
            stdout, stderr = proc.communicate(timeout=150)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            leftover = _reap_group(proc.pid)
        wall = clock.now() - started
        raw_wall = time.perf_counter() - raw_started
        cpu_after = resource.getrusage(resource.RUSAGE_CHILDREN)
        cpu = (cpu_after.ru_utime - cpu_before.ru_utime) + (cpu_after.ru_stime - cpu_before.ru_stime)
        try:
            report = json.loads(stdout) if proc.returncode == 0 else None
        except json.JSONDecodeError:
            report = None
        return {"exit": proc.returncode, "report": report, "leftover": leftover,
                "stderr": stderr.decode(errors="replace")[-2000:]}, wall, raw_wall, cpu

    def run_round(self, tracer, clock) -> Round:
        outputs, walls, snapshots, child_cpu, raw_wall = [], [], [], 0.0, 0.0
        for k, (_, degree_text, samples) in enumerate(self.invocations):
            trace_out = None
            if tracer is not None:
                trace_out = self.trace_dir / f"invocation-{k}"
                trace_out.mkdir(parents=True, exist_ok=True)
                for old in trace_out.iterdir():
                    old.unlink()
            out, wall, raw, cpu = self._invoke(self._command(degree_text, samples, trace_out), clock)
            outputs.append(out)
            walls.append(wall)
            if k == 0:
                child_cpu, raw_wall = cpu, raw
            if trace_out is not None:
                snapshots += [json.loads(p.read_text()) for p in sorted(trace_out.iterdir())]
        layers = spans.merge(snapshots) if tracer is not None else None
        return Round(walls[0], walls[1], _stable(outputs), layers, child_cpu, raw_wall)

    def peak_rss_mb(self) -> float:
        return _rss_mb(resource.RUSAGE_CHILDREN)

    def check(self, outputs) -> list[str]:
        problems = []
        for (degrees, _, samples), out in zip(self.invocations, outputs):
            if out["leftover"]:
                problems.append("survey left pool workers running")
            if out["report"] is None:
                problems.append(f"survey exit {out['exit']}: {out['stderr']}")
                continue
            problems += checks.check_survey(out["exit"], out["report"], degrees, samples)
            results = out["report"]["results"]
            for r in results["records"]:
                pf = forms.random_perazzo_form(r["degree"], seed=r["seed"], bound=results["bound"])
                problems += checks.check_exact(r["h"], forms.h_via_ranks(pf).exact)
        return problems


def _stable(outputs):
    """Drop the report fields that legitimately change from run to run."""
    for out in outputs:
        if out["report"] is not None:
            out["report"].pop("timing_ms", None)
    return outputs


def _reap_group(pgid: int) -> bool:
    """True if processes of the survey's process group outlived it.

    Those are killed, and this waits up to ten seconds for them to be gone.
    """
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return False
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            break
        time.sleep(0.05)
    return True


def make(name: str, seed: int, root: Path, trace_dir: Path):
    if name == "survey-cli":
        return SurveyCli(seed, root, trace_dir)
    return {
        "wlp-maximal": WlpMaximal,
        "minimal-classify": MinimalClassify,
        "hvector-high-degree": HvectorHighDegree,
    }[name](seed)
