"""Benchmark entry point: one workload, one seed, for a fixed measuring time.

    python3 perfbench/run.py --workload wlp-maximal --seed 1 --seconds 25 --trace 0

Run from the repository root.  The workload's inputs are made from the seed,
then whole rounds run until the next one would pass `--seconds`.  With
`--trace 0` the last line of standard output carries the end-to-end metrics
named in BENCHMARK.json; with `--trace 1` the same rounds run with spans
installed and the line carries the per-layer metrics.  The line before it
records the commit, the Python version and the elimination backend, because
runs on different backends must not be compared.  Every run also writes its
rounds and full span table to perfbench/results/.

Every time the run reports is read from `hostclock.HostClock`, which samples
the host's speed while the program runs and divides it out (see
perfbench/README.md, "The host clock"); it starts before the imports so that
`setup_s` is read from it too.
"""

import time

_STARTED = time.perf_counter()  # setup_s counts from here: imports, then inputs

import hostclock

CLOCK = hostclock.HostClock()
CLOCK.start(since=_STARTED)

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"
WORKLOADS = ("wlp-maximal", "minimal-classify", "hvector-high-degree", "survey-cli")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def source_identity() -> dict:
    """Commit when the tree is a git checkout, and a hash of the sources always."""
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "perazzo").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return {"commit": commit, "source_sha256": digest.hexdigest()}


# -- per-layer metrics --------------------------------------------------------------


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_value(name: str, rnd, jobs: int) -> float:
    """One per-layer metric of one round, from its span table and counters."""
    stats, counters = rnd.layers["stats"], rnd.layers["counters"]
    if name == "inverse_systems.catalecticant.cells":
        return counters.get("catalecticant.cells", 0)
    if name == "inverse_systems.catalecticant.live_ratio":
        return _ratio(counters.get("catalecticant.live_cells", 0), counters.get("catalecticant.cells", 0))
    if name == "lefschetz.mult_map_matrix.symbolic_calls":
        return counters.get("mult_map_matrix.symbolic_calls", 0)
    if name == "lefschetz.wlp.witness_ratio":
        return _ratio(counters.get("wlp.stages_certified", 0), counters.get("wlp.stages_checked", 0))
    if name == "cli.survey.child_cpu_s":
        return rnd.child_cpu_s
    if name == "cli.survey.pool_utilisation":
        return _ratio(rnd.child_cpu_s, rnd.raw_wall_s * jobs)
    span, _, field = name.rpartition(".")
    calls, self_s, _ = stats.get(span, (0, 0.0, 0.0))
    if field == "calls":
        return calls
    if field == "self_s":
        return self_s
    raise KeyError(f"no rule for per-layer metric {name}")


def per_layer(spec, rounds, jobs: int) -> tuple[dict, list[str]]:
    """Counts from the first round (they must repeat in every round), times
    as the median over rounds."""
    metrics, problems = {}, []
    for m in spec:
        values = [layer_value(m["name"], r, jobs) for r in rounds]
        if m["unit"] == "count":
            if len(set(values)) != 1:
                problems.append(f"{m['name']} differs between rounds: {values}")
            value = values[0]
        else:
            value = statistics.median(values)
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    return metrics, problems


# -- main -----------------------------------------------------------------------------


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "perazzo" / "__init__.py").is_file():
        print(f"perazzo sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(ROOT / "src"))
    import perazzo
    import spans
    import workloads

    trace_dir = RESULTS / f"trace-{args.workload}-{args.seed}"
    workload = workloads.make(args.workload, args.seed, ROOT, trace_dir)
    setup_s = CLOCK.now()
    if getattr(workload, "jobs", 1) > 1:
        CLOCK.spread_over(os.sched_getaffinity(0))

    tracer = None
    if args.trace:
        tracer = spans.Tracer(CLOCK.now)
        spans.install(tracer)
    rounds, durations = [], []
    deadline = time.perf_counter() + args.seconds
    try:
        while True:
            started = time.perf_counter()
            rounds.append(workload.run_round(tracer, CLOCK))
            durations.append(time.perf_counter() - started)
            if time.perf_counter() + statistics.median(durations) > deadline:
                break
    finally:
        CLOCK.stop()
        shutil.rmtree(trace_dir, ignore_errors=True)
    peak_rss_mb = workload.peak_rss_mb()

    problems = workload.check(rounds[0].outputs)
    if any(r.outputs != rounds[0].outputs for r in rounds[1:]):
        problems.append("outputs differ between rounds")
    jobs = getattr(workload, "jobs", 1)
    end_to_end = {
        "setup_s": {"value": setup_s, "unit": "s"},
        "wall_s": {"value": statistics.median(r.wall_s for r in rounds), "unit": "s"},
        "top_degree_s": {"value": statistics.median(r.top_s for r in rounds), "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
    }
    if args.trace:
        metrics, round_problems = per_layer(spec["per_layer"], rounds, jobs)
        problems += round_problems
    else:
        metrics = {m["name"]: end_to_end[m["name"]] for m in spec["end_to_end"]}

    meta = {
        **source_identity(),
        "python": platform.python_version(),
        "backend": perazzo.BACKEND,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "jobs": jobs,
        "cpu_count": os.cpu_count(),
        "host_slowdown": round(CLOCK.median_slowdown(), 4),
        "sampling_s": round(CLOCK.handler_s, 4),
    }
    result = {
        "correct": not problems,
        "attempted": workload.ops_per_round * len(rounds),
        "failed": 0,
        "metrics": metrics,
    }
    RESULTS.mkdir(exist_ok=True)
    record = {
        "meta": meta,
        "result": result,
        "end_to_end": end_to_end,
        "rounds": [{"wall_s": r.wall_s, "top_degree_s": r.top_s, "raw_wall_s": r.raw_wall_s,
                    "child_cpu_s": r.child_cpu_s} for r in rounds],
        "spans": rounds[0].layers,
        "problems": problems,
    }
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1, default=str))
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    print("meta: " + json.dumps(meta))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
