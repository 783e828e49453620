"""CLI surface: payload shapes, exit codes, round-trips, survey output."""

import csv
import io
import json
import os
import shlex
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import perazzo.cli as cli
from perazzo.cli import main
from perazzo.errors import InternalError
from perazzo.parsing import parse_poly
from perazzo.poly import HomogeneousPoly, VariableSet, binary_variables

QUADRIC = "x0^2*x4 + x1^2*x3 + x2^3"
QUADRIC_VARS = "x0,x1,x2,x3,x4"
IKEDA = "x0*x2^3*x3 + x1*x2*x3^3 + x0^3*x1^2"
IKEDA_VARS = "x0,x1,x2,x3"


def run_cli(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def run_json(capsys, argv):
    rc, out, err = run_cli(capsys, argv + ["--format", "json"])
    assert rc == 0, err
    report = json.loads(out)
    assert report["schema"] == "perazzo-report/1"
    return report


# -- hvector -----------------------------------------------------------------


def test_hvector_json_frozen_payload(capsys):
    report = run_json(capsys, ["hvector", QUADRIC, "--vars", QUADRIC_VARS])
    timing = report.pop("timing_ms")
    assert isinstance(timing, float) and timing >= 0
    assert report == {
        "schema": "perazzo-report/1",
        "command": "hvector",
        "input": QUADRIC,
        "source": "inline",
        "vars": ["x0", "x1", "x2", "x3", "x4"],
        "seed": 0,
        "results": {
            "h": [1, 5, 5, 1],
            "socle_degree": 3,
            "symmetric": True,
            "osequence": True,
        },
    }


def test_hvector_text_output(capsys):
    rc, out, _ = run_cli(capsys, ["hvector", QUADRIC, "--vars", QUADRIC_VARS])
    assert rc == 0
    assert "h: (1, 5, 5, 1)" in out
    assert "symmetric: True  osequence: True" in out


def test_hvector_includes_block_bounds_for_perazzo_input(capsys):
    report = run_json(capsys, ["hvector", "u^4*x0 + u^3*v*x1 + v^4*x2"])
    res = report["results"]
    assert res["h"] == [1, 5, 6, 6, 5, 1]
    assert res["perazzo_bounds"] == {
        "lower": [1, 5, 6, 6, 5, 1],
        "upper": [1, 5, 6, 6, 5, 1],
        "exact": [1, 5, 6, 6, 5, 1],
    }


def test_hvector_runs_are_deterministic(capsys):
    argv = ["wlp", "u^6*x0 + u^2*v^4*x1 + u^4*v^2*x1 + v^6*x2"]
    first = run_json(capsys, argv)
    second = run_json(capsys, argv)
    first.pop("timing_ms")
    second.pop("timing_ms")
    assert first == second


# -- ann ------------------------------------------------------------------------


def test_ann_text_lists_operators(capsys):
    rc, out, _ = run_cli(capsys, ["ann", "u^3*v", "--vars", "u,v", "--t", "2"])
    assert rc == 0
    assert "t: 2  dimension: 1" in out
    assert "V^2" in out


def test_ann_json_operators_reparse(capsys):
    report = run_json(
        capsys, ["ann", "u^4*x0 + u^3*v*x1 + v^4*x2", "--t", "2"]
    )
    res = report["results"]
    assert res["t"] == 2
    assert res["dimension"] == len(res["operators"]) == 15 - 6
    dual = VariableSet(tuple(res["operator_vars"]))
    for text in res["operators"]:
        assert parse_poly(text, dual).render() == text


# -- Lefschetz subcommands --------------------------------------------------------


def test_wlp_json_frozen_verdict(capsys):
    report = run_json(capsys, ["wlp", IKEDA, "--vars", IKEDA_VARS])
    res = report["results"]
    assert res["holds"] is False
    assert res["failing_degree"] == 3
    assert res["certificate"] == "all-specializations-deficient"
    assert res["witness"] is None


def test_slp_json_vanishing_orders(capsys):
    report = run_json(capsys, ["slp", "u^6*x0 + u^3*v^3*x1 + v^6*x2"])
    res = report["results"]
    assert res["holds"] is False
    assert res["vanishing_orders"] == [1, 2, 3]


def test_hessian_json_with_matrix(capsys):
    report = run_json(
        capsys,
        ["hessian", "u^3*x0 + u^2*v*x1 + v^3*x2", "--t", "1", "--matrix"],
    )
    res = report["results"]
    assert res["t"] == 1
    assert res["dimension"] == 5
    assert res["vanishes"] is True
    assert res["determinant"] == "0"
    assert len(res["matrix"]) == 5
    assert all(len(row) == 5 for row in res["matrix"])
    assert sorted(res["basis_vars"]) == ["U", "V", "y0", "y1", "y2"]


# -- classify ----------------------------------------------------------------------


def test_classify_json_round_trip(capsys):
    text = "u^5*x0 + u^4*v*x1 + u^3*v^2*x2 + u^6 + 2*u^5*v"
    report = run_json(capsys, ["classify", text])
    res = report["results"]
    assert res["case"] == "osculating-plane"
    assert res["divisor_pattern"] == [3]
    assert res["g_compatible"] is True
    assert res["cone"] is False
    st = binary_variables(tuple(res["divisor_vars"]))
    assert parse_poly(res["divisor"], st).render() == res["divisor"] == "t^3"
    nm = res["normalization"]
    assert (nm["first"], nm["second"]) == ("u", "v")
    assert nm["lam"] is None and nm["mu"] is None


def test_classify_json_rejects_shape_gracefully(capsys):
    report = run_json(capsys, ["classify", "x0^2*u^4 + x1*u^5 + x2*v^5"])
    res = report["results"]
    assert res["case"] == "not-perazzo"
    assert res["divisor"] is None
    assert res["normalization"] is None


def test_classify_constant_is_not_perazzo_and_has_no_cone(capsys):
    # A nonzero constant defines no hypersurface: there is no cone to test.
    report = run_json(capsys, ["classify", "7"])
    res = report["results"]
    assert res["case"] == "not-perazzo"
    assert res["cone"] is None
    rc, out, err = run_cli(capsys, ["classify", "7"])
    assert (rc, err) == (0, "")
    assert "case: not-perazzo" in out and "cone:" not in out
    # The zero polynomial stays a usage error.
    rc, _, err = run_cli(capsys, ["classify", "0"])
    assert rc == 2 and "no hypersurface" in err


# -- waring and relation --------------------------------------------------------------


def test_waring_json_witness_rebuilds_input(capsys):
    report = run_json(capsys, ["waring", "u^3*v", "--secant", "2"])
    res = report["results"]
    assert (res["rank"], res["border_rank"]) == (4, 2)
    assert res["secant_index"] == 2
    assert res["in_secant"] is True
    ring = binary_variables(tuple(report["vars"]))
    target = parse_poly("u^3*v", ring)
    total = HomogeneousPoly.zero(ring, 4)
    assert len(res["witness"]) == 4
    for item in res["witness"]:
        form = parse_poly(item["form"], ring)
        total = total + (form**4).scale(Fraction(item["coefficient"]))
    assert total == target


def test_waring_json_no_witness(capsys):
    report = run_json(capsys, ["waring", "u^2*v^2"])
    res = report["results"]
    assert (res["rank"], res["border_rank"]) == (3, 3)
    assert res["witness"] is None
    assert "in_secant" not in res


def test_relation_semicolon_triple(capsys):
    report = run_json(capsys, ["relation", "u^2; u*v; v^2", "--vars", "u,v"])
    res = report["results"]
    assert res["degree"] == 2
    assert res["relation"] == "z0*z2 - z1^2"
    zring = VariableSet(tuple(res["relation_vars"]))
    assert parse_poly(res["relation"], zring).render() == res["relation"]


def test_relation_from_perazzo_polynomial(capsys):
    report = run_json(capsys, ["relation", "u^4*x0 + u^3*v*x1 + u^2*v^2*x2"])
    assert report["results"]["relation"] == "z0*z2 - z1^2"


def test_relation_respects_degree_cap(capsys):
    report = run_json(
        capsys,
        ["relation", "u^2; u*v; v^2", "--vars", "u,v", "--max-relation-degree", "1"],
    )
    assert report["results"]["relation"] is None
    assert report["results"]["degree"] is None


# -- exit codes -------------------------------------------------------------------------


def test_usage_errors_exit_2(capsys, tmp_path):
    path = tmp_path / "form.txt"
    path.write_text("u^3*v\n", encoding="utf-8")
    cases = [
        ["hvector", "u^3*v", "--vars", "u,v", "--file", str(path)],
        ["hvector"],
        ["ann", "u^3*v", "--vars", "u,v"],
        ["hessian", QUADRIC, "--vars", QUADRIC_VARS],
        ["relation", "u^2; v^2", "--vars", "u,v"],
        ["survey", "--samples", "-1"],
        ["survey", "--jobs", "0"],
        ["survey", "--jobs", "-3"],
        ["survey", "--degrees", "2"],
        ["survey", "--degrees", "9..5"],
        ["survey", "--degrees", "x"],
        ["survey", "--degrees", "5..x"],
        ["survey", "--file", str(path)],
        ["relation", "0"],
        ["relation", "7"],
        ["hessian", "0", "--t", "1"],
    ]
    messages = {
        ("relation", "0"): "Perazzo forms need degree d >= 3",
        ("relation", "7"): "Perazzo forms need degree d >= 3",
        ("hessian", "0", "--t", "1"): "zero polynomial",
    }
    for argv in cases:
        rc, _, err = run_cli(capsys, argv)
        assert rc == 2, argv
        assert "usage error:" in err
        if "--degrees" in argv:
            assert f"bad degree range {argv[-1]!r} (need 3 <= lo <= hi)" in err
        if tuple(argv) in messages:
            assert f"usage error: {messages[tuple(argv)]}" in err


def test_parse_error_exits_3(capsys):
    rc, _, err = run_cli(capsys, ["hvector", "x0^2 + x1"])
    assert rc == 3
    assert "parse error:" in err


def test_guard_error_exits_4_and_max_degree_lifts_it(capsys):
    rc, _, err = run_cli(capsys, ["hvector", "u^33", "--vars", "u,v"])
    assert rc == 4
    assert "guard:" in err
    report = run_json(
        capsys, ["hvector", "u^33", "--vars", "u,v", "--max-degree", "40"]
    )
    assert report["results"]["h"] == [1] * 34
    # ann's operator degree answers to the same guard as the form.
    cubic = "u^3*x0 + v^3*x1 + u*v^2*x2"
    rc, out, err = run_cli(capsys, ["ann", cubic, "--t", "60"])
    assert (rc, out) == (4, "")
    assert err.startswith("guard: operator degree 60 exceeds the guard (32)")
    report = run_json(capsys, ["ann", "u^3*v", "--vars", "u,v", "--t", "40",
                               "--max-degree", "40"])
    assert report["results"]["dimension"] == 41


def test_variable_guard_says_the_command_line_cannot_lift_it(capsys):
    rc, out, err = run_cli(capsys, ["hvector", "a^2", "--vars", "a,b,c,d,e,f,g,h,i"])
    assert (rc, out) == (4, "")
    assert err == (
        "guard: 9 variables exceed the guard (8); "
        "the command line cannot lift this limit\n"
    )
    assert "max_vars" not in err
    # A parse error still comes first.
    rc, _, err = run_cli(capsys, ["hvector", "a^2 +", "--vars", "a,b,c,d,e,f,g,h,i"])
    assert rc == 3 and "parse error:" in err


def test_survey_passes_max_degree_to_every_sample(capsys):
    for samples in ("1", "0"):
        rc, _, err = run_cli(
            capsys,
            ["survey", "--degrees", "6", "--max-degree", "5", "--samples", samples,
             "--jobs", "1"],
        )
        assert rc == 4, samples
        assert "guard:" in err


def test_internal_error_exits_5(capsys, monkeypatch):
    def boom(*args, **kwargs):
        raise InternalError("forced")

    monkeypatch.setattr(cli, "h_vector", boom)
    rc, _, err = run_cli(capsys, ["hvector", "u^3*v", "--vars", "u,v"])
    assert rc == 5
    assert "internal invariant breach:" in err


# -- file input and output ----------------------------------------------------------------


def test_file_input_matches_inline(capsys, tmp_path):
    path = tmp_path / "form.txt"
    path.write_text("u^3*v\n", encoding="utf-8")
    from_file = run_json(capsys, ["waring", "--file", str(path)])
    inline = run_json(capsys, ["waring", "u^3*v"])
    assert from_file["source"] == str(path)
    assert inline["source"] == "inline"
    assert from_file["input"] == inline["input"] == "u^3*v"
    assert from_file["results"] == inline["results"]


def test_unreadable_file_is_a_usage_error(capsys, tmp_path):
    for path in (tmp_path / "missing.txt", tmp_path):
        rc, out, err = run_cli(capsys, ["hvector", "--file", str(path)])
        assert rc == 2
        assert out == ""
        assert err.startswith("usage error: cannot read --file")
        assert err.count("\n") == 1


def test_unwritable_out_is_a_usage_error(capsys, tmp_path):
    for path in (tmp_path / "missing" / "r.txt", tmp_path):
        rc, out, err = run_cli(
            capsys, ["hvector", QUADRIC, "--vars", QUADRIC_VARS, "--out", str(path)]
        )
        assert rc == 2
        assert out == ""
        assert err.startswith("usage error: cannot write --out")
        assert err.count("\n") == 1


def test_options_belong_to_their_subcommands(capsys):
    # --bound and --jobs only steer the survey, --matrix only the Hessian report.
    for argv in (
        ["hvector", QUADRIC, "--jobs", "7"],
        ["hvector", QUADRIC, "--bound", "3"],
        ["wlp", QUADRIC, "--matrix"],
        ["survey", "--matrix"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        assert "unrecognized arguments" in capsys.readouterr().err


def test_out_writes_report_file(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    rc, out, _ = run_cli(
        capsys,
        ["hvector", QUADRIC, "--vars", QUADRIC_VARS, "--format", "json",
         "--out", str(out_path)],
    )
    assert rc == 0
    assert out == ""
    report = json.loads(out_path.read_text(encoding="utf-8"))
    assert report["results"]["h"] == [1, 5, 5, 1]


# -- survey ----------------------------------------------------------------------------------


def test_survey_families_frozen(capsys):
    report = run_json(capsys, ["survey", "--degrees", "5", "--samples", "0",
                               "--jobs", "1"])
    res = report["results"]
    records = res["records"]
    assert [r["family"] for r in records] == [
        "osculating", "tangent-point", "three-points",
    ]
    assert [r["case"] for r in records] == [
        "osculating-plane", "tangent-plane-and-point", "three-distinct-points",
    ]
    for r in records:
        assert r["h"] == [1, 5, 6, 6, 5, 1]
        assert r["minimal"] is True
        assert r["maximal"] is False
        assert r["bound_ok"] is True
        assert r["wlp"] is True
        assert r["slp"] is False
    assert res["summary"]["5"] == {
        "count": 3,
        "strata": {"1,5,6,6,5,1": 3},
        "wlp_true": 3,
        "slp_true": 0,
        "bound_violations": 0,
    }
    assert res["bound_violations"] == 0


def test_survey_jobs_do_not_change_records(capsys):
    argv = ["survey", "--degrees", "5", "--samples", "2"]
    serial = run_json(capsys, argv + ["--jobs", "1"])
    pooled = run_json(capsys, argv + ["--jobs", "2"])
    assert serial["results"]["records"] == pooled["results"]["records"]
    assert serial["results"]["summary"] == pooled["results"]["summary"]


def test_survey_seed_derivation_and_reproducibility(capsys):
    argv = ["survey", "--degrees", "5", "--samples", "3", "--seed", "7",
            "--jobs", "1"]
    first = run_json(capsys, argv)
    second = run_json(capsys, argv)
    first.pop("timing_ms")
    second.pop("timing_ms")
    assert first == second
    seeds = [r["seed"] for r in first["results"]["records"]]
    assert seeds == [7 * 1000003 + 5 * 1009 + i for i in range(3)]


def test_survey_csv_shape(capsys):
    rc, out, _ = run_cli(
        capsys,
        ["survey", "--degrees", "4..5", "--samples", "2", "--jobs", "1",
         "--format", "csv"],
    )
    assert rc == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == [
        "degree", "index", "seed", "family", "h", "case", "wlp", "slp",
        "minimal", "maximal", "bound_ok",
    ]
    assert len(rows) == 1 + 4
    assert [r[0] for r in rows[1:]] == ["4", "4", "5", "5"]
    for r in rows[1:]:
        assert len(r) == 11
        assert r[3] == ""  # random samples carry no family label
        assert r[10] == "True"
    # Degree 4 pins the h-vector completely: minimal and maximal coincide.
    assert rows[1][4] == "1 5 6 5 1"
    assert rows[1][8] == rows[1][9] == "True"


# -- README examples -------------------------------------------------------------------------


def _readme_examples() -> list[tuple[str, list[str]]]:
    """The `$ perazzo ...` commands in README with the report lines shown under them."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    examples, shown = [], None
    for line in readme.read_text(encoding="utf-8").splitlines():
        if line.startswith("$ perazzo "):
            shown = []
            examples.append((line[2:], shown))
        elif shown is not None and line.strip() and not line.startswith("```"):
            shown.append(line)
        else:
            shown = None  # a blank line or the fence ends the example
    return examples


def test_readme_examples_match_the_report_body(capsys):
    examples = _readme_examples()
    assert len(examples) == 3
    for command, shown in examples:
        rc, out, _ = run_cli(capsys, shlex.split(command)[1:])
        assert rc == 0, command
        lines = out.splitlines()
        seed = next(i for i, line in enumerate(lines) if line.startswith("seed:"))
        assert lines[-1].startswith("timing_ms:")
        assert lines[seed + 1:-1] == shown, command


# -- console script ---------------------------------------------------------------------------


def test_console_script_runs():
    # The installed script when there is one, else the module over this src tree.
    exe = shutil.which("perazzo")
    env = dict(os.environ)
    if exe is None:
        command = [sys.executable, "-m", "perazzo.cli"]
        src = str(Path(cli.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    else:
        command = [exe]
    proc = subprocess.run(
        command + ["hvector", QUADRIC, "--vars", QUADRIC_VARS, "--format", "json"],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["results"]["h"] == [1, 5, 5, 1]
