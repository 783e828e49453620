"""Tests of the benchmark's own machinery: span arithmetic and output checks.

    PYTHONPATH=src python3 -m pytest perfbench -q

Every check must reject a tampered result: one h entry off by one, a flipped
WLP verdict, a wrong classification case, wrong divisor roots, and a survey
report with a broken record.
"""

from __future__ import annotations

import json
import math
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import checks  # noqa: E402
import hostclock  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


# -- spans ----------------------------------------------------------------------------


def test_self_time_of_a_nested_call_tree():
    # a [0, 10] holds b [1, 4] (which holds c [2, 3]) and b [5, 9];
    # bookkeeping of 0.5 s inside a, after the second b, is excluded.
    clock = FakeClock()
    t = spans.Tracer(clock)
    for at, op in [(0, "a"), (1, "b"), (2, "c"), (3, None), (4, None),
                   (5, "b"), (9, None), (9.5, 0.5), (10, None)]:
        clock.now = at
        if op is None:
            t.end()
        elif isinstance(op, float):
            t.exclude(op)
        else:
            t.begin(op)
    assert t.stats["a"] == [1, pytest.approx(10 - 3 - 4 - 0.5), 10]
    assert t.stats["b"] == [2, pytest.approx((3 - 1) + 4), 7]
    assert t.stats["c"] == [1, 1, 1]
    total_self = sum(v[1] for v in t.stats.values())
    assert total_self == pytest.approx(10 - 0.5)


def test_merge_sums_snapshots():
    a = {"stats": {"x": [1, 0.5, 1.0]}, "counters": {"n": 2}}
    b = {"stats": {"x": [2, 0.25, 0.5], "y": [1, 1.0, 1.0]}, "counters": {"n": 3, "m": 1}}
    merged = spans.merge([a, b])
    assert merged["stats"] == {"x": [3, 0.75, 1.5], "y": [1, 1.0, 1.0]}
    assert merged["counters"] == {"n": 5, "m": 1}


def test_install_wraps_every_binding_and_uninstall_restores():
    from perazzo import _bareiss_py, bareiss, forms, inverse_systems, lefschetz, poly

    original = poly.apply_monomial_op
    t = spans.Tracer()
    patches = spans.install(t)
    try:
        for mod in (poly, inverse_systems, lefschetz, forms):
            assert mod.apply_monomial_op is not original
        assert _bareiss_py.echelon_int is not bareiss.echelon_int
        f = forms.tangent_point_family(6).to_polynomial()
        inverse_systems.h_vector(f)  # inactive: nothing recorded
        assert t.stats == {}
        t.active = True
        h = inverse_systems.h_vector(f)
        t.active = False
    finally:
        spans.uninstall(patches)
    assert h.entries == checks.min_h(6)
    # one operator per monomial of degree t <= 3 in five variables
    assert t.stats["poly.apply_monomial_op"][0] == sum(math.comb(k + 4, 4) for k in range(4))
    assert t.stats["inverse_systems.catalecticant"][0] == 4
    assert t.counters["catalecticant.cells"] == sum(
        math.comb(k + 4, 4) * math.comb(6 - k + 4, 4) for k in range(4)
    )
    for mod in (poly, inverse_systems, lefschetz, forms):
        assert mod.apply_monomial_op is original


# -- independent facts ---------------------------------------------------------------


# -- host clock -------------------------------------------------------------------


def test_host_clock_divides_out_the_slowdown_and_skips_sampling(monkeypatch):
    now = [10.0]
    readings = iter([0.5] * 5 + [2.0])  # slowdown after start, then after one sample

    def measure():  # each sample takes 0.25 s of wall time
        now[0] += 0.25
        return next(readings)

    clock = hostclock.HostClock()
    monkeypatch.setattr(clock, "_measure", measure)
    monkeypatch.setattr(hostclock.time, "perf_counter", lambda: now[0])
    monkeypatch.setattr(hostclock.signal, "setitimer", lambda *a: None)
    clock.start(since=9.0)  # one second before start, credited at slowdown 0.5
    clock.stop()
    assert now[0] == pytest.approx(11.25)  # start's five samples are not counted
    assert clock.now() == pytest.approx(2.0)
    now[0] += 1.0  # one second at slowdown 0.5
    assert clock.now() == pytest.approx(4.0)
    clock._sample(None, None)
    assert clock.now() == pytest.approx(4.0)
    now[0] += 2.0  # two seconds at slowdown 2.0
    assert clock.now() == pytest.approx(5.0)
    assert clock.handler_s == pytest.approx(0.25)


def test_host_clock_spread_over_cpus_takes_the_harmonic_mean(monkeypatch):
    pinned = []
    monkeypatch.setattr(hostclock.os, "sched_setaffinity", lambda pid, cpus: pinned.append(set(cpus)))
    kernel = {0: 2.0, 1: 1.0}  # CPU 0 runs at half the speed of CPU 1
    clock = hostclock.HostClock(nominal=1.0)
    monkeypatch.setattr(clock, "_time_kernel", lambda: kernel[min(pinned[-1])])
    clock.spread_over([1, 0])
    assert clock._measure() == pytest.approx(2.0)  # only CPU 0 sampled so far
    assert clock._measure() == pytest.approx(2 / (1 / 2.0 + 1 / 1.0))
    assert pinned == [{0}, {0, 1}, {1}, {0, 1}]  # each sample pinned, then released


def test_host_clock_stop_restores_the_alarm_handler():
    import signal

    before = signal.getsignal(signal.SIGALRM)
    clock = hostclock.HostClock(period=0.01)
    clock.start()
    try:
        deadline = time.perf_counter() + 0.2
        while time.perf_counter() < deadline:
            pass
    finally:
        clock.stop()
    assert len(clock.samples) > 2
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_extremal_vectors_are_symmetric_osequences():
    assert checks.macaulay_bound(5, 1) == 15
    assert checks.macaulay_bound(6, 2) == 10
    for d in range(4, 21):
        assert checks.check_h(checks.max_h(d), d) == []
        assert checks.check_h(checks.min_h(d), d) == []
    assert checks.check_h((1, 2, 4, 2, 1), 4)  # 2^<1> = 3 < 4


def test_moved_points_follow_the_substitution():
    pf, roots = workloads.minimal_form(3, 6, "three-distinct-points")
    from perazzo import binary, forms

    found = binary.rational_roots(forms.intersection_divisor(pf))
    assert {tuple(p): m for p, m in found} == roots


# -- tampered outputs ------------------------------------------------------------------


def _tampered_h(h):
    for i in range(len(h)):
        for delta in (-1, 1):
            bad = list(h)
            bad[i] += delta
            yield tuple(bad)


def _small(cls, degrees):
    return type(cls.__name__, (cls,), {"degrees": degrees})(seed=11)


@pytest.fixture(scope="module")
def small_runs():
    runs = {}
    for cls, degrees in ((workloads.WlpMaximal, (5, 6)),
                         (workloads.MinimalClassify, (5, 6)),
                         (workloads.HvectorHighDegree, (5, 6))):
        w = _small(cls, degrees)
        outputs = w.run_round(None, hostclock.HostClock()).outputs
        assert w.check(outputs) == []
        runs[cls.__name__] = (w, outputs)
    return runs


def _with(outputs, k, **changes):
    bad = [dict(o) for o in outputs]
    bad[k].update(changes)
    return bad


@pytest.mark.parametrize("name", ["WlpMaximal", "MinimalClassify", "HvectorHighDegree"])
def test_h_entry_off_by_one_is_rejected(small_runs, name):
    w, outputs = small_runs[name]
    for k, out in enumerate(outputs):
        for bad_h in _tampered_h(out["h"]):
            assert w.check(_with(outputs, k, h=bad_h)), (name, k, bad_h)


@pytest.mark.parametrize("name", ["WlpMaximal", "MinimalClassify"])
def test_flipped_wlp_verdict_is_rejected(small_runs, name):
    w, outputs = small_runs[name]
    for k, out in enumerate(outputs):
        assert w.check(_with(outputs, k, wlp=not out["wlp"]))


def test_wrong_case_is_rejected(small_runs):
    w, outputs = small_runs["MinimalClassify"]
    for k, out in enumerate(outputs):
        for case in ("osculating-plane", "tangent-plane-and-point",
                     "three-distinct-points", "non-minimal"):
            if case != out["case"]:
                assert w.check(_with(outputs, k, case=case))


def test_wrong_roots_are_rejected(small_runs):
    w, outputs = small_runs["MinimalClassify"]
    for k, out in enumerate(outputs):
        (s, t), m = out["roots"][0]
        moved = [((s + 1, t), m)] + out["roots"][1:]
        remult = [((s, t), m + 1)] + out["roots"][1:]
        for roots in (moved, remult, out["roots"][1:], None):
            assert w.check(_with(outputs, k, roots=roots))
        divisor = list(out["divisor"])
        divisor[0] += 1
        assert w.check(_with(outputs, k, divisor=divisor))


@pytest.fixture(scope="module")
def survey_run(tmp_path_factory):
    from perazzo import cli

    tmp = tmp_path_factory.mktemp("survey")
    code = cli.main(["survey", "--degrees", "6", "--samples", "2", "--jobs", "1", "--seed", "11",
                     "--format", "json", "--out", str(tmp / "report.json")])
    w = workloads.SurveyCli(11, BENCH.parent, tmp)
    w.invocations = [([6], "6", 2)]
    out = {"exit": code, "report": json.loads((tmp / "report.json").read_text()),
           "leftover": False, "stderr": ""}
    assert w.check([out]) == []
    return w, out


def test_survey_checks_reject_tampered_reports(survey_run):
    w, out = survey_run

    def rejected(**record_changes):
        bad = json.loads(json.dumps(out))
        bad["report"]["results"]["records"][0].update(record_changes)
        return bool(w.check([bad]))

    record = out["report"]["results"]["records"][0]
    for bad_h in _tampered_h(record["h"]):
        assert rejected(h=list(bad_h)), bad_h
    assert rejected(wlp=not record["wlp"])
    assert rejected(slp=True)
    assert rejected(index=5)
    for key, value in (("exit", 4), ("leftover", True)):
        assert w.check([{**out, key: value}])
    short = json.loads(json.dumps(out))
    short["report"]["results"]["records"].pop()
    assert w.check([short])
    violated = json.loads(json.dumps(out))
    violated["report"]["results"]["bound_violations"] = 1
    assert w.check([violated])
