"""Command-line front end.

A subcommand is one entry of `_COMMANDS` (help line, payload, default
--vars) plus its branch in `_text_lines`.  `_run` does the common part once:
it reads the polynomial (inline or from a file), builds the ring, parses,
calls the payload, and wraps its results in the report envelope, which is
emitted as text, JSON, or CSV.  JSON is the canonical machine format,
carries a versioned "schema" field, and every polynomial it contains
re-parses to the identical polynomial over the variable names printed next
to it.  Exit codes separate failure kinds:
0 the computation completed (verdict content never affects the code),
2 usage, 3 parse failure, 4 desk-scale guard, 5 internal invariant breach.

The survey subcommand generates its own inputs: seeded random Perazzo forms
per degree (or the three canonical minimal families when --samples 0),
fanned out over a process pool and reduced to per-degree tallies of
h-vector strata, classification cases, Lefschetz verdicts, and
extremal-bound violations.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor

from .errors import GuardError, InternalError, ParseError
from .forms import (
    PerazzoForm,
    algebraic_relation,
    classify,
    classify_polynomial,
    h_via_ranks,
    is_cone,
    max_hvector,
    min_hvector,
    osculating_family,
    random_perazzo_form,
    secant_membership,
    tangent_point_family,
    three_points_family,
    waring_rank,
)
from .inverse_systems import ann_basis, h_vector, is_osequence
from .lefschetz import has_slp, has_wlp, hessian
from .parsing import parse_poly
from .poly import (
    ROLE_PLAIN,
    ROLE_UV,
    ROLE_X,
    HomogeneousPoly,
    VariableSet,
)

SCHEMA = "perazzo-report/1"

_XUV = "x0,x1,x2,u,v"
_UV = "u,v"


def _variable_set(names_text: str) -> VariableSet:
    names = tuple(n.strip() for n in names_text.split(","))
    if any(not n for n in names):
        raise ValueError("empty variable name in --vars")
    if len(names) == 5:
        roles = (ROLE_X,) * 3 + (ROLE_UV,) * 2
    elif len(names) == 2:
        roles = (ROLE_UV, ROLE_UV)
    else:
        roles = (ROLE_PLAIN,) * len(names)
    return VariableSet(names, roles)


def _read_source(args) -> tuple[str, str]:
    """The polynomial text and where it came from; exactly one source."""
    inline = args.expression
    if inline is not None and args.file:
        raise ValueError("give an inline expression or --file, not both")
    if inline is not None:
        return inline, "inline"
    if args.file:
        try:
            with open(args.file, encoding="utf-8") as fh:
                return fh.read().strip(), args.file
        except OSError as exc:
            reason = exc.strerror or exc
            raise ValueError(f"cannot read --file {args.file}: {reason}") from None
    raise ValueError("an input polynomial is required (inline or --file)")


# -- subcommand payloads: (f, ring, args) -> results ---------------------------


def _hvector(f: HomogeneousPoly, ring: VariableSet, args) -> dict:
    hv = h_vector(f, max_degree=args.max_degree)
    res = {
        "h": list(hv.entries),
        "socle_degree": f.degree,
        "symmetric": hv.entries == hv.entries[::-1],
        "osequence": is_osequence(hv),
    }
    try:
        pf = PerazzoForm.from_polynomial(f, max_degree=args.max_degree)
    except ValueError:
        return res
    bounds = h_via_ranks(pf)
    res["perazzo_bounds"] = {
        "lower": list(bounds.lower.entries),
        "upper": list(bounds.upper.entries),
        "exact": list(bounds.exact.entries) if bounds.exact else None,
    }
    return res


def _ann(f: HomogeneousPoly, ring: VariableSet, args) -> dict:
    if args.t is None:
        raise ValueError("ann requires --t (operator degree)")
    ops = ann_basis(f, args.t, max_degree=args.max_degree)
    return {
        "t": args.t,
        "dimension": len(ops),
        "operator_vars": list(ring.dual().names),
        "operators": [op.render() for op in ops],
    }


def _wlp(f: HomogeneousPoly, ring: VariableSet, args) -> dict:
    verdict = has_wlp(f, seed=args.seed, max_degree=args.max_degree)
    return {
        "holds": verdict.holds,
        "failing_degree": verdict.failing_degree,
        "certificate": verdict.certificate,
        "witness_vars": list(ring.dual().names),
        "witness": verdict.witness.render() if verdict.witness else None,
    }


def _slp(f: HomogeneousPoly, ring: VariableSet, args) -> dict:
    verdict = has_slp(f, full=True, max_degree=args.max_degree)
    return {
        "holds": verdict.holds,
        "failing_degree": verdict.failing_degree,
        "certificate": verdict.certificate,
        "vanishing_orders": list(verdict.vanishing_orders),
    }


def _hessian(f: HomogeneousPoly, ring: VariableSet, args) -> dict:
    if args.t is None:
        raise ValueError("hessian requires --t (Hessian order)")
    rep = hessian(f, args.t, max_degree=args.max_degree)
    dual = ring.dual()
    res = {
        "t": args.t,
        "dimension": len(rep.basis),
        "basis_vars": list(dual.names),
        "basis": [HomogeneousPoly.monomial(dual, e).render() for e in rep.basis],
        "vanishes": rep.vanishes,
        "determinant": rep.determinant.render(),
    }
    if args.matrix:
        res["matrix"] = [
            [entry.render() for entry in row] for row in rep.matrix.rows
        ]
    return res


def _classify(f: HomogeneousPoly, ring: VariableSet, args) -> dict:
    cl = classify_polynomial(f, max_degree=args.max_degree)
    nm = cl.normalization
    return {
        "case": cl.case.value,
        "divisor_vars": ["s", "t"],
        "divisor": cl.divisor.render() if cl.divisor is not None else None,
        "divisor_pattern": (
            list(cl.divisor_pattern) if cl.divisor_pattern is not None else None
        ),
        "g_compatible": cl.g_compatible,
        "normalization": None if nm is None else {
            "first": nm.first.render(),
            "second": nm.second.render(),
            "lam": str(nm.lam) if nm.lam is not None else None,
            "mu": str(nm.mu) if nm.mu is not None else None,
        },
        "cone": is_cone(f, max_degree=args.max_degree),
    }


def _waring(p: HomogeneousPoly, ring: VariableSet, args) -> dict:
    result = waring_rank(p, max_degree=args.max_degree)
    witness = result.decomposition_witness
    res = {
        "rank": result.rank,
        "border_rank": result.border_rank,
        "witness": None if witness is None else [
            {"form": form.render(), "coefficient": str(lam)}
            for form, lam in witness
        ],
    }
    if args.secant is not None:
        res["secant_index"] = args.secant
        res["in_secant"] = secant_membership(
            p, args.secant, max_degree=args.max_degree
        )
    return res


def _relation(text: str, ring: VariableSet, args) -> dict:
    """Takes the raw text: three ';'-separated binary forms, or one Perazzo form."""
    if ";" in text:
        pieces = [piece.strip() for piece in text.split(";")]
        if len(pieces) != 3:
            raise ValueError("relation expects exactly three ';'-separated forms")
        p0, p1, p2 = (parse_poly(piece, ring) for piece in pieces)
    else:
        f = parse_poly(text, ring)
        pf = PerazzoForm.from_polynomial(f, max_degree=args.max_degree)
        p0, p1, p2 = pf.p0, pf.p1, pf.p2
    rel = algebraic_relation(
        p0, p1, p2, max_relation_degree=args.max_relation_degree
    )
    return {
        "relation_vars": ["z0", "z1", "z2"],
        "degree": rel.degree if rel is not None else None,
        "relation": rel.render() if rel is not None else None,
    }


# -- survey -------------------------------------------------------------------


_FAMILY_BUILDERS = (
    ("osculating", osculating_family),
    ("tangent-point", tangent_point_family),
    ("three-points", three_points_family),
)


def _survey_sample(task: tuple) -> dict:
    # Five fields, the run-wide limits grouped last: perfbench/survey_child.py
    # wraps this function and unpacks the task the same way.
    kind, d, index, seed, (bound, max_degree) = task
    if kind == "family":
        label, builder = _FAMILY_BUILDERS[index]
        pf = builder(d, max_degree=max_degree)
    else:
        label = None
        pf = random_perazzo_form(d, seed=seed, bound=bound, max_degree=max_degree)
    f = pf.to_polynomial()
    hv = h_vector(f, max_degree=max_degree)
    h = hv.entries
    record = {
        "degree": d,
        "index": index,
        "seed": seed,
        "family": label,
        "h": list(h),
    }
    if d >= 4:
        lo, hi = min_hvector(d).entries, max_hvector(d).entries
        record["minimal"] = h == lo
        record["maximal"] = h == hi
        record["bound_ok"] = all(
            lo[i] <= h[i] <= hi[i] for i in range(len(h))
        )
    else:
        record["minimal"] = None
        record["maximal"] = None
        record["bound_ok"] = True
    record["case"] = classify(pf).case.value if d >= 5 else None
    record["wlp"] = has_wlp(f, seed=seed, max_degree=max_degree).holds
    record["slp"] = has_slp(f, max_degree=max_degree).holds
    return record


def _parse_degree_range(text: str) -> list[int]:
    message = f"bad degree range {text!r} (need 3 <= lo <= hi)"
    lo_text, dots, hi_text = text.partition("..")
    try:
        lo = int(lo_text)
        hi = int(hi_text) if dots else lo
    except ValueError:
        raise ValueError(message) from None
    if lo < 3 or hi < lo:
        raise ValueError(message)
    return list(range(lo, hi + 1))


def _survey(f: None, ring: None, args) -> dict:
    if args.file:
        raise ValueError("survey generates its own inputs; drop the polynomial")
    degrees = _parse_degree_range(args.degrees)
    samples = args.samples
    if samples < 0:
        raise ValueError("--samples must be nonnegative")
    if args.jobs is not None and args.jobs < 1:
        raise ValueError("--jobs must be at least 1")
    limits = (args.bound, args.max_degree)
    tasks: list[tuple] = []
    for d in degrees:
        if samples == 0:
            for index in range(len(_FAMILY_BUILDERS)):
                tasks.append(("family", d, index, args.seed, limits))
        else:
            for index in range(samples):
                derived = args.seed * 1000003 + d * 1009 + index
                tasks.append(("random", d, index, derived, limits))
    jobs = args.jobs if args.jobs is not None else (os.cpu_count() or 1)
    if jobs > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            records = list(pool.map(_survey_sample, tasks))
    else:
        records = [_survey_sample(t) for t in tasks]
    records.sort(key=lambda r: (r["degree"], r["index"]))
    summary: dict[str, dict] = {}
    violations = 0
    for d in degrees:
        of_degree = [r for r in records if r["degree"] == d]
        strata: dict[str, int] = {}
        for r in of_degree:
            key = ",".join(str(x) for x in r["h"])
            strata[key] = strata.get(key, 0) + 1
        bad = sum(1 for r in of_degree if not r["bound_ok"])
        violations += bad
        summary[str(d)] = {
            "count": len(of_degree),
            "strata": dict(sorted(strata.items())),
            "wlp_true": sum(1 for r in of_degree if r["wlp"]),
            "slp_true": sum(1 for r in of_degree if r["slp"]),
            "bound_violations": bad,
        }
    return {
        "degrees": degrees,
        "samples": samples,
        "bound": args.bound,
        "records": records,
        "summary": summary,
        "bound_violations": violations,
    }


# -- rendering ----------------------------------------------------------------


def _text_lines(report: dict) -> list[str]:
    cmd = report["command"]
    res = report["results"]
    lines = [f"command: {cmd}"]
    if report["input"] is not None:
        lines.append(f"input: {report['input']}")
    if report["vars"] is not None:
        lines.append(f"vars: {', '.join(report['vars'])}")
    lines.append(f"seed: {report['seed']}")
    if cmd == "hvector":
        lines.append("h: (" + ", ".join(str(x) for x in res["h"]) + ")")
        lines.append(f"symmetric: {res['symmetric']}  osequence: {res['osequence']}")
        if "perazzo_bounds" in res:
            b = res["perazzo_bounds"]
            lines.append(f"block lower bound: {b['lower']}")
            lines.append(f"block upper bound: {b['upper']}")
            lines.append(f"block exact:       {b['exact']}")
    elif cmd == "ann":
        lines.append(f"t: {res['t']}  dimension: {res['dimension']}")
        for op in res["operators"]:
            lines.append(f"  {op}")
    elif cmd == "wlp":
        lines.append(f"WLP holds: {res['holds']}")
        if res["failing_degree"] is not None:
            lines.append(f"failing degree: {res['failing_degree']}")
        lines.append(f"certificate: {res['certificate']}")
        if res["witness"]:
            lines.append(f"witness L = {res['witness']}")
    elif cmd == "slp":
        lines.append(f"SLP holds: {res['holds']}")
        if res["failing_degree"] is not None:
            lines.append(f"failing degree: {res['failing_degree']}")
        if res["vanishing_orders"]:
            orders = ", ".join(str(t) for t in res["vanishing_orders"])
            lines.append(f"identically vanishing Hessian orders: {orders}")
    elif cmd == "hessian":
        lines.append(f"t: {res['t']}  dimension: {res['dimension']}")
        lines.append(f"basis: {', '.join(res['basis'])}")
        lines.append(f"vanishes identically: {res['vanishes']}")
        lines.append(f"determinant: {res['determinant']}")
        if "matrix" in res:
            for row in res["matrix"]:
                lines.append("  [" + ", ".join(row) + "]")
    elif cmd == "classify":
        lines.append(f"case: {res['case']}")
        if res["divisor"] is not None:
            lines.append(f"divisor: {res['divisor']}")
            lines.append(f"pattern: {res['divisor_pattern']}")
        lines.append(f"g compatible: {res['g_compatible']}")
        if res["normalization"]:
            nm = res["normalization"]
            lines.append(f"normal form: first = {nm['first']}, second = {nm['second']}")
            if nm["lam"] is not None:
                lines.append(f"middle point: lam = {nm['lam']}, mu = {nm['mu']}")
        lines.append(f"cone: {res['cone']}")
    elif cmd == "waring":
        lines.append(f"rank: {res['rank']}  border rank: {res['border_rank']}")
        if res["witness"]:
            for item in res["witness"]:
                lines.append(f"  {item['coefficient']} * ({item['form']})^e")
        else:
            lines.append("  no rational decomposition found")
        if "in_secant" in res:
            lines.append(
                f"in secant sigma_{res['secant_index']}: {res['in_secant']}"
            )
    elif cmd == "relation":
        if res["relation"] is None:
            lines.append("no relation up to the degree cap")
        else:
            lines.append(f"relation degree: {res['degree']}")
            lines.append(f"relation: {res['relation']}")
    elif cmd == "survey":
        lines.append(
            f"degrees: {res['degrees']}  samples: {res['samples']}  bound: {res['bound']}"
        )
        for d, row in res["summary"].items():
            lines.append(
                f"d={d}: n={row['count']} wlp={row['wlp_true']} "
                f"slp={row['slp_true']} violations={row['bound_violations']}"
            )
            for h, count in row["strata"].items():
                lines.append(f"    ({h}) x{count}")
        lines.append(f"total bound violations: {res['bound_violations']}")
    lines.append(f"timing_ms: {report['timing_ms']}")
    return lines


def _flatten(prefix: str, value, out: dict) -> None:
    if isinstance(value, dict):
        for k, v in value.items():
            _flatten(f"{prefix}.{k}" if prefix else str(k), v, out)
    elif isinstance(value, list):
        if all(not isinstance(x, (dict, list)) for x in value):
            out[prefix] = " ".join(str(x) for x in value)
        else:
            for i, v in enumerate(value):
                _flatten(f"{prefix}.{i}", v, out)
    else:
        out[prefix] = value


def _csv_text(report: dict) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    if report["command"] == "survey":
        fields = [
            "degree",
            "index",
            "seed",
            "family",
            "h",
            "case",
            "wlp",
            "slp",
            "minimal",
            "maximal",
            "bound_ok",
        ]
        writer.writerow(fields)
        for r in report["results"]["records"]:
            row = dict(r)
            row["h"] = " ".join(str(x) for x in r["h"])
            writer.writerow([row[f] for f in fields])
    else:
        flat: dict = {}
        for key in ("command", "input", "seed"):
            flat[key] = report[key]
        _flatten("", report["results"], flat)
        writer.writerow(list(flat))
        writer.writerow([flat[k] for k in flat])
    return buf.getvalue()


def _render(report: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(report, indent=2) + "\n"
    if fmt == "csv":
        return _csv_text(report)
    return "\n".join(_text_lines(report)) + "\n"


# -- entry point ----------------------------------------------------------------


_COMMANDS = {
    # name: (help, payload, default --vars; None for a command without input)
    "hvector": (
        "h-vector of S/Ann(f), with block-rank bounds for Perazzo forms",
        _hvector, _XUV,
    ),
    "ann": ("basis of the degree-t piece of the annihilator", _ann, _XUV),
    "wlp": ("weak Lefschetz property verdict", _wlp, _XUV),
    "slp": ("strong Lefschetz property verdict via higher Hessians", _slp, _XUV),
    "hessian": ("t-th Hessian determinant", _hessian, _XUV),
    "classify": (
        "Perazzo classification: divisor, case, g-compatibility", _classify, _XUV,
    ),
    "waring": ("Waring rank and border rank of a binary form", _waring, _UV),
    "relation": ("algebraic relation among three binary forms", _relation, _UV),
    "survey": (
        "sweep degrees and seeds; tabulate h-vectors and verdicts", _survey, None,
    ),
}


def _run(args) -> dict:
    """Read the input, build the ring, parse, and wrap the payload's results."""
    name = args.command
    _, payload, default_vars = _COMMANDS[name]
    text = source = ring = f = None
    if default_vars is not None:
        text, source = _read_source(args)
        if name == "relation" and ";" not in text:
            default_vars = _XUV  # one Perazzo form, not three binary forms
        ring = _variable_set(args.vars or default_vars)
        f = text if name == "relation" else parse_poly(text, ring)
    return {
        "schema": SCHEMA,
        "command": name,
        "input": text,
        "source": source,
        "vars": list(ring.names) if ring is not None else None,
        "seed": args.seed,
        "results": payload(f, ring, args),
        "timing_ms": None,
    }


def build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument(
        "--vars",
        help="comma-separated variable names; 5 names split 3+2 into the "
        "x-block and uv-block, 2 names form the binary block "
        "(default: x0,x1,x2,u,v; u,v for waring/relation)",
    )
    shared.add_argument(
        "--format", choices=("text", "json", "csv"), default="text"
    )
    shared.add_argument("--seed", type=int, default=0)
    shared.add_argument(
        "--max-degree",
        type=int,
        default=None,
        help="raise the desk-scale degree guard",
    )
    shared.add_argument("--file", help="read the polynomial from a UTF-8 file")
    shared.add_argument("--out", help="write the report to this file")

    parser = argparse.ArgumentParser(
        prog="perazzo",
        description="Exact invariants of forms: h-vectors, Lefschetz "
        "properties, higher Hessians, and the Perazzo 3-fold toolbox.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, default_vars) in _COMMANDS.items():
        p = sub.add_parser(name, parents=[shared], help=help_text)
        if default_vars is not None:
            p.add_argument("expression", nargs="?", help="polynomial text")
        if name in ("ann", "hessian"):
            p.add_argument("--t", type=int, default=None, help="operator degree")
        if name == "hessian":
            p.add_argument(
                "--matrix", action="store_true", help="include matrix entries"
            )
        if name == "waring":
            p.add_argument(
                "--secant",
                type=int,
                default=None,
                help="also test membership in the r-th secant variety",
            )
        if name == "relation":
            p.add_argument(
                "--max-relation-degree",
                type=int,
                default=None,
                help="cap on the relation degree searched",
            )
        if name == "survey":
            p.add_argument(
                "--degrees", default="4..8", help="degree or range, e.g. 5 or 4..8"
            )
            p.add_argument(
                "--samples",
                type=int,
                default=10,
                help="random samples per degree; "
                "0 runs the three minimal families",
            )
            p.add_argument(
                "--bound", type=int, default=9, help="coefficient bound of random forms"
            )
            p.add_argument(
                "--jobs",
                type=int,
                default=None,
                help="worker processes (default: CPUs)",
            )
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        report = _run(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 3
    except GuardError as exc:
        print(f"guard: {exc}", file=sys.stderr)
        return 4
    except InternalError as exc:
        print(f"internal invariant breach: {exc}", file=sys.stderr)
        return 5
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    report["timing_ms"] = round((time.perf_counter() - started) * 1000.0, 3)
    text = _render(report, args.format)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            reason = exc.strerror or exc
            print(
                f"usage error: cannot write --out {args.out}: {reason}",
                file=sys.stderr,
            )
            return 2
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
