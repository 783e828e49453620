"""Nested spans and counters around calls into the perazzo modules.

The benchmark installs these wrappers from its own files; nothing under
`src/` is edited.  A span's self time is its duration minus the time its
child spans cover.  Calls are nested and single-threaded, so child spans
never overlap and the covered time is the sum of their durations.

Each wrapper is bound in the module that defines the name and in every other
`perazzo` module that imported the same object (`inverse_systems`,
`lefschetz` and `forms` each hold their own `apply_monomial_op`).  Private
kernel modules (`perazzo._*`) are left alone: the compiled twin cannot be
wrapped, so the pure twin's internal calls stay untraced as well and the
`bareiss` layer is measured at its public boundary under either backend.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# (module, name) of every traced callable; a dotted name is a class method.
TARGETS = (
    ("poly", "apply_monomial_op"),
    ("inverse_systems", "catalecticant"),
    ("inverse_systems", "h_vector"),
    ("linalg", "RationalMatrix.rank"),
    ("linalg", "RationalMatrix.rref"),
    ("linalg", "RationalMatrix.inverse"),
    ("linalg", "generic_rank"),
    ("linalg", "det_poly"),
    ("bareiss", "rank_int"),
    ("bareiss", "echelon_int"),
    ("lefschetz", "has_wlp"),
    ("lefschetz", "monomial_basis_of_A"),
    ("lefschetz", "mult_map_matrix"),
    ("lefschetz", "hessian"),
    ("lefschetz", "has_slp"),
    ("forms", "classify"),
    ("forms", "intersection_divisor"),
    ("forms", "h_via_ranks"),
    ("binary", "rational_roots"),
)


class Tracer:
    """Per-name span statistics and counters; records only while `active`."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.active = False
        self.stats: dict[str, list] = {}  # name -> [calls, self_s, total_s]
        self.counters: dict[str, int] = {}
        self.pending_mult = None  # last concrete multiplication map, for its rank
        self._stack: list[list] = []  # open spans: [name, start, covered_s]

    def reset(self) -> None:
        self.stats = {}
        self.counters = {}
        self.pending_mult = None
        self._stack = []

    def begin(self, name: str) -> None:
        self._stack.append([name, self.clock(), 0.0])

    def end(self) -> float:
        name, start, covered = self._stack.pop()
        duration = self.clock() - start
        entry = self.stats.setdefault(name, [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += duration - covered
        entry[2] += duration
        if self._stack:
            self._stack[-1][2] += duration
        return duration

    def exclude(self, seconds: float) -> None:
        """Keep bookkeeping time out of the enclosing span's self time."""
        if self._stack:
            self._stack[-1][2] += seconds

    def count(self, name: str, k: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + k

    def snapshot(self) -> dict:
        return {
            "stats": {k: list(v) for k, v in self.stats.items()},
            "counters": dict(self.counters),
        }


def merge(snapshots) -> dict:
    """Sum span statistics and counters of several snapshots."""
    stats: dict[str, list] = {}
    counters: dict[str, int] = {}
    for snap in snapshots:
        for name, (calls, self_s, total_s) in snap["stats"].items():
            entry = stats.setdefault(name, [0, 0.0, 0.0])
            entry[0] += calls
            entry[1] += self_s
            entry[2] += total_s
        for name, k in snap["counters"].items():
            counters[name] = counters.get(name, 0) + k
    return {"stats": stats, "counters": counters}


# -- probes: counts taken where the work happens ------------------------------


def _catalecticant_cells(tracer, args, kwargs, cat) -> None:
    rows = cat.matrix.rows
    live_rows = sum(1 for r in rows if any(r))
    live_cols = {j for r in rows for j, x in enumerate(r) if x}
    tracer.count("catalecticant.cells", cat.matrix.nrows * cat.matrix.ncols)
    tracer.count("catalecticant.live_cells", live_rows * len(live_cols))


def _mult_map_kind(tracer, args, kwargs, matrix) -> None:
    concrete = (args[2] if len(args) > 2 else kwargs.get("L")) is not None
    if concrete:
        tracer.count("wlp.stages_checked")
        tracer.pending_mult = matrix
    else:
        tracer.count("mult_map_matrix.symbolic_calls")


def _rank_certifies(tracer, args, kwargs, rank) -> None:
    # has_wlp certifies a stage when the concrete map reaches its target
    # min(h_i, h_{i+1}), which is the smaller side of the h_{i+1} x h_i matrix.
    matrix = args[0]
    if matrix is tracer.pending_mult:
        tracer.pending_mult = None
        if rank == min(matrix.nrows, matrix.ncols):
            tracer.count("wlp.stages_certified")


_PROBES = {
    "inverse_systems.catalecticant": _catalecticant_cells,
    "lefschetz.mult_map_matrix": _mult_map_kind,
    "linalg.RationalMatrix.rank": _rank_certifies,
}


def _wrap(tracer: Tracer, name: str, fn, probe):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end()
        if probe is not None:
            started = tracer.clock()
            probe(tracer, args, kwargs, result)
            tracer.exclude(tracer.clock() - started)
        return result

    return traced


def install(tracer: Tracer) -> list[tuple]:
    """Wrap every target; returns the (owner, attribute, original) undo list."""
    patches = []
    for module_name, name in TARGETS:
        module = importlib.import_module(f"perazzo.{module_name}")
        span = f"{module_name}.{name}"
        if "." in name:
            cls_name, attr = name.split(".")
            owner = getattr(module, cls_name)
            original = owner.__dict__[attr]
            setattr(owner, attr, _wrap(tracer, span, original, _PROBES.get(span)))
            patches.append((owner, attr, original))
            continue
        original = getattr(module, name)
        traced = _wrap(tracer, span, original, _PROBES.get(span))
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "perazzo" or mod_name.startswith("perazzo.")):
                continue
            if mod_name.startswith("perazzo._"):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, traced)
                    patches.append((mod, attr, original))
    return patches


def uninstall(patches: list[tuple]) -> None:
    for owner, attr, original in reversed(patches):
        setattr(owner, attr, original)
