import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from lelong.cli import ProblemError, emit, execute, main, parse_problem, run_selftest
from lelong.numeric_oracle import RadialSchedule


def minimal_problem():
    return {
        "dimension": 2,
        "objects": {
            "w1": {"kind": "monomial_weight", "exponents": [[2, 0], [0, 3]]},
        },
        "tasks": [{"op": "newton_number", "phi": "w1"}],
    }


def spec_example_problem():
    return {
        "dimension": 2,
        "objects": {
            "m1": {"kind": "monomial_weight", "exponents": [[1, 1]]},
            "m2": {"kind": "monomial_weight", "exponents": [[4, 0], [1, 1], [0, 4]]},
            "counterexample": {
                "kind": "expr",
                "expr": {
                    "node": "max",
                    "children": [
                        {"node": "neg_pow_log", "axis": 1, "power": "1/2"},
                        {"node": "coord_log", "axis": 2},
                    ],
                },
            },
        },
        "tasks": [
            {"op": "generalized_lelong_exact", "u": "m1", "phi": "m2"},
            {"op": "slice_lelong", "w": "counterexample", "k": 1},
            {"op": "gamma_measure", "phi": "m2"},
        ],
    }


# ---------------------------------------------------------------------------
# parsing


def test_parse_minimal():
    p = parse_problem(minimal_problem())
    assert p.dimension == 2
    assert len(p.tasks) == 1


def test_parse_undefined_reference():
    prob = minimal_problem()
    prob["tasks"][0]["phi"] = "psi"
    with pytest.raises(ProblemError, match=r"tasks\[0\].phi.*psi"):
        parse_problem(prob)


def test_parse_negative_exponent():
    prob = minimal_problem()
    prob["objects"]["w1"]["exponents"] = [[2, -1]]
    with pytest.raises(ProblemError, match="negative"):
        parse_problem(prob)


def test_parse_unknown_key_with_location():
    prob = minimal_problem()
    prob["tasks"][0]["extra"] = 1
    with pytest.raises(ProblemError, match=r"tasks\[0\].*unknown keys.*extra"):
        parse_problem(prob)


def test_parse_unknown_op():
    prob = minimal_problem()
    prob["tasks"][0]["op"] = "frobnicate"
    with pytest.raises(ProblemError, match="unknown op"):
        parse_problem(prob)


def test_parse_malformed_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"dimension": 2,,}')
    with pytest.raises(ProblemError, match="line 1"):
        parse_problem(str(path))


def test_parse_rational_forms():
    prob = minimal_problem()
    prob["objects"]["w1"]["exponents"] = [["1/2", 0], [[0, 1], 3]]
    p = parse_problem(prob)
    S = p.objects["w1"]
    assert sorted(str(x) for pt in S.points for x in pt) == ["0", "0", "1/2", "3"]


def test_parse_rejects_float_exponent():
    prob = minimal_problem()
    prob["objects"]["w1"]["exponents"] = [[0.5, 0]]
    with pytest.raises(ProblemError, match="expected int"):
        parse_problem(prob)


def test_parse_wrong_slot_kind():
    prob = spec_example_problem()
    prob["tasks"][0]["u"] = "counterexample"
    with pytest.raises(ProblemError, match="monomial_weight"):
        parse_problem(prob)


# ---------------------------------------------------------------------------
# execution


def test_execute_spec_examples():
    report = execute(parse_problem(spec_example_problem()))
    t0, t1, t2 = report.tasks
    assert t0["status"] == "ok" and t0["result"]["value"] == "8"
    assert t1["status"] == "ok"
    assert abs(t1["result"]["value"] - 1.0) < 0.01
    assert t2["status"] == "ok"
    atoms = t2["result"]["atoms"]
    assert {tuple(a["vertex"]): a["mass"] for a in atoms} == {
        ("-1/4", "-3/4"): "2",
        ("-3/4", "-1/4"): "2",
    }
    assert report.exit_code() == 0


def test_execute_isolates_failures():
    prob = minimal_problem()
    prob["objects"]["degen"] = {"kind": "monomial_weight", "exponents": [[1, 0]]}
    prob["tasks"] = [
        {"op": "gamma_measure", "phi": "degen"},  # degenerate: task error
        {"op": "newton_number", "phi": "w1"},
    ]
    report = execute(parse_problem(prob))
    assert report.tasks[0]["status"] == "error"
    assert "degenerate indicator" in report.tasks[0]["error"]
    assert report.tasks[1]["status"] == "ok"
    assert report.tasks[1]["result"]["value"] == "6"
    assert report.exit_code() == 1


def test_execute_check_failure_exit_code():
    prob = {
        "dimension": 1,
        "objects": {
            "u": {"kind": "expr", "expr": {"node": "coord_log", "axis": 1}},
            "phi": {"kind": "monomial_weight", "exponents": [[1]]},
        },
        "tasks": [
            {
                "op": "lelong_bounds_check",
                "u": "u",
                "phi": "phi",
                "m_list": [1],
                "tolerance": -10.0,
                "schedule": {"levels": [-10, -20], "nodes": 64},
            }
        ],
    }
    report = execute(parse_problem(prob))
    assert report.tasks[0]["status"] == "fail"
    assert report.exit_code() == 2


# ---------------------------------------------------------------------------
# emission


def test_emit_json_deterministic_and_roundtrips():
    report = execute(parse_problem(spec_example_problem()))
    blob1 = emit(report, "json")
    blob2 = emit(report, "json")
    assert blob1 == blob2
    data = json.loads(blob1)
    assert data["tasks"][0]["inputs"] == {
        "op": "generalized_lelong_exact",
        "u": "m1",
        "phi": "m2",
    }


def test_emit_text_has_aligned_tables():
    report = execute(parse_problem(minimal_problem()))
    text = emit(report, "text").decode()
    assert "newton_number" in text
    assert 'result.value  "6"' in text


def test_emit_csv_gamma_columns():
    report = execute(parse_problem(spec_example_problem()))
    csv = emit(report, "csv").decode()
    assert "vertex_1,vertex_2,mass_num,mass_den" in csv
    assert "-1/4,-3/4,2,1" in csv


def test_emit_unknown_format():
    report = execute(parse_problem(minimal_problem()))
    with pytest.raises(ValueError, match="unsupported format"):
        emit(report, "yaml")


# ---------------------------------------------------------------------------
# entry point and selftest


def test_main_run_roundtrip(tmp_path, capsys):
    path = tmp_path / "prob.json"
    path.write_text(json.dumps(minimal_problem()))
    code = main(["run", str(path), "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    data = json.loads(out)
    assert data["tasks"][0]["result"]["value"] == "6"


def test_main_run_oversized_grid_is_a_task_error(tmp_path, capsys):
    prob = {
        "dimension": 3,
        "objects": {
            "w": {"kind": "expr", "expr": {"node": "poly_log", "terms": [
                {"coeff": [1, 0], "exponent": [2, 0, 0]},
                {"coeff": [1, 0], "exponent": [0, 3, 0]},
                {"coeff": [1, 0], "exponent": [0, 0, 5]},
            ]}},
            "phi": {"kind": "monomial_weight", "exponents": [[2, 0, 0], [0, 3, 0], [0, 0, 5]]},
        },
        "tasks": [
            {"op": "classical_lelong_numeric", "w": "w"},
            {"op": "newton_number", "phi": "phi"},
        ],
    }
    path = tmp_path / "prob.json"
    path.write_text(json.dumps(prob))
    main(["run", str(path), "--format", "json"])
    first, second = json.loads(capsys.readouterr().out)["tasks"]
    assert first["status"] == "error"
    assert "exceeds the limit" in first["error"]
    assert second["status"] == "ok"
    assert second["result"]["value"] == "30"


def test_report_names_the_file_by_its_base_name(tmp_path, capsys):
    blobs = []
    for folder in ("a", "a_much_longer_directory/nested"):
        path = tmp_path / folder / "prob.json"
        path.parent.mkdir(parents=True)
        path.write_text(json.dumps(minimal_problem()))
        assert main(["run", str(path), "--format", "json"]) == 0
        blobs.append(capsys.readouterr().out)
    assert blobs[0] == blobs[1]
    assert json.loads(blobs[0])["problem"] == "prob.json"
    # errors keep the path as given
    bad = tmp_path / "a" / "bad.json"
    bad.write_text("[]")
    with pytest.raises(ProblemError, match="^" + re.escape(f"{bad}: top level")):
        parse_problem(str(bad))


def test_main_missing_file(capsys):
    code = main(["run", "/nonexistent/prob.json"])
    assert code == 1


def test_selftest_passes_and_is_deterministic():
    payload1, code1 = run_selftest()
    payload2, code2 = run_selftest()
    assert code1 == 0 and code2 == 0
    assert json.dumps(payload1, sort_keys=True) == json.dumps(payload2, sort_keys=True)
    for section in payload1["selftest"]:
        for check in section["checks"]:
            assert check["pass"], check


def test_selftest_subprocess_byte_identical():
    cmd = [sys.executable, "-m", "lelong.cli", "selftest"]
    r1 = subprocess.run(cmd, capture_output=True)
    r2 = subprocess.run(cmd, capture_output=True)
    assert r1.returncode == 0
    assert r1.stdout == r2.stdout
    assert r1.stdout


def test_selftest_matches_golden():
    # the committed golden fixes the selftest JSON: any byte that moves is
    # a change of the reported mathematics
    golden = Path(__file__).parent / "golden" / "selftest.json"
    r = subprocess.run([sys.executable, "-m", "lelong.cli", "selftest"], capture_output=True)
    assert r.returncode == 0
    assert r.stdout == golden.read_bytes()


# ---------------------------------------------------------------------------
# every op: golden reports and parse-time errors

GOLDEN = Path(__file__).parent / "golden"
OPS_PROBLEM = GOLDEN / "ops_problem.json"


@pytest.mark.parametrize("fmt, suffix", [("json", "json"), ("text", "txt"), ("csv", "csv")])
def test_every_op_matches_golden_report(fmt, suffix, capsys):
    # the golden covers all ops with optional slots present and absent, and
    # run-time errors; each task's report bytes are fixed in three formats
    args = ["run", str(OPS_PROBLEM), "--nodes", "64", "--levels", "3", "--rmin", "-20"]
    assert main(args + ["--format", fmt]) == 1
    assert capsys.readouterr().out.encode() == (GOLDEN / f"ops_report.{suffix}").read_bytes()


def _parse_error(problem: dict) -> str:
    with pytest.raises(ProblemError) as info:
        parse_problem(problem)
    return str(info.value)


def parse_errors() -> dict[str, list[str]]:
    """Each op's parse-time errors, on the op's first task in the ops golden.

    An unknown key, then for each object reference: the reference left
    out, naming an undefined object, and naming an object of the other kind.
    """
    problem = json.loads(OPS_PROBLEM.read_text())
    objects = problem["objects"]
    out: dict[str, list[str]] = {}
    for task in problem["tasks"]:
        if task["op"] in out:
            continue

        def error(**changes):
            t = {k: v for k, v in {**task, **changes}.items() if v is not None}
            return _parse_error({"dimension": 2, "objects": objects, "tasks": [t]})

        errors = out[task["op"]] = [error(bogus=1)]
        for slot, ref in task.items():
            if slot == "op" or not isinstance(ref, str) or ref not in objects:
                continue
            other = "cusp" if objects[ref]["kind"] == "monomial_weight" else "tri"
            errors += [error(**{slot: None}), error(**{slot: "nowhere"}), error(**{slot: other})]
    return out


def test_every_op_parse_errors_match_golden():
    golden = json.loads((GOLDEN / "ops_parse_errors.json").read_text())
    assert parse_errors() == golden
    assert len(golden) == 17


def test_parse_unknown_op_text():
    prob = minimal_problem()
    prob["tasks"][0]["op"] = "frobnicate"
    assert _parse_error(prob) == "tasks[0].op: unknown op 'frobnicate'"


def test_parse_rejects_non_string_names():
    prob = minimal_problem()
    prob["tasks"][0]["phi"] = ["w1"]
    assert _parse_error(prob) == "tasks[0].phi: undefined object ['w1']"
    prob["tasks"][0]["op"] = ["newton_number"]
    assert _parse_error(prob) == "tasks[0].op: unknown op ['newton_number']"


# ---------------------------------------------------------------------------
# strict integer and float slots


def _run_one(task: dict, objects: dict | None = None) -> dict:
    problem = json.loads(OPS_PROBLEM.read_text())
    problem["objects"].update(objects or {})
    problem["tasks"] = [task]
    sched = RadialSchedule.geometric(-20.0, 3, 64)
    return execute(parse_problem(problem), default_sched=sched).tasks[0]


@pytest.mark.parametrize("task, where, got", [
    ({"op": "tau", "phi": "tri", "k": 2.5}, "k", "2.5"),
    ({"op": "tau", "phi": "tri", "k": True}, "k", "true"),
    ({"op": "tau", "phi": "tri", "k": 2.0}, "k", "2.0"),
    ({"op": "tau", "phi": "tri", "k": "3/2"}, "k", '"3/2"'),
    ({"op": "scaling_transform", "w": "cusp", "m": 1.9}, "m", "1.9"),
    ({"op": "slice_lelong", "w": "cusp", "k": 1.5}, "k", "1.5"),
    ({"op": "sandwich_check", "u": "pl", "m_list": [1, 1.7]}, "m_list[1]", "1.7"),
    ({"op": "sandwich_check", "u": "pl", "m_list": [1], "degree_cap": True}, "degree_cap", "true"),
    ({"op": "sandwich_check", "u": "pl", "m_list": [1], "degree_cap": 6.5}, "degree_cap", "6.5"),
    ({"op": "swept_measure_apply", "phi": "axes", "w": "cusp", "r": -5, "nodes": 64.5},
     "nodes", "64.5"),
    ({"op": "classical_lelong_numeric", "w": "cusp", "schedule": {"nodes": 64.5}},
     "schedule.nodes", "64.5"),
])
def test_integer_slots_reject_booleans_floats_and_fractions(task, where, got):
    rec = _run_one(task)
    assert rec["status"] == "error"
    assert rec["error"] == f"ProblemError: tasks[0].{where}: expected an integer, got {got}"


@pytest.mark.parametrize("op", ["sandwich_check", "lelong_bounds_check"])
def test_negative_degree_cap_is_an_error(op):
    task = {"op": op, "u": "pl", "m_list": [1], "degree_cap": -1}
    if op == "lelong_bounds_check":
        task["phi"] = "axes"
    rec = _run_one(task)
    assert rec["status"] == "error"
    assert rec["error"] == "ValueError: degree_cap must be nonnegative"


def test_integer_slots_accept_integral_rationals():
    assert _run_one({"op": "tau", "phi": "tri", "k": [4, 2]})["result"]["value"] == "4"
    assert _run_one({"op": "tau", "phi": "tri", "k": "2"})["result"]["value"] == "4"
    swept = _run_one({"op": "swept_measure_apply", "phi": "axes", "w": "cusp", "r": -5,
                      "nodes": [256, 2]})
    assert swept["result"]["nodes"] == 128
    est = _run_one({"op": "directional_lelong_numeric", "w": "cusp", "a": [1, 1],
                    "schedule": {"nodes": "128"}})
    assert est["result"]["angular_nodes"] == 128
    m2 = _run_one({"op": "sandwich_check", "u": "pl", "m_list": ["2"], "degree_cap": [12, 2]})
    assert list(m2["result"]["c1_by_m"]) == ["2"]
    assert m2["result"] == _run_one(
        {"op": "sandwich_check", "u": "pl", "m_list": [2], "degree_cap": 6})["result"]


def test_tolerance_reads_exact_rationals():
    task = {"op": "lelong_bounds_check", "u": "pl", "phi": "axes", "m_list": [1]}
    rec = _run_one({**task, "tolerance": "1/10"})
    assert rec["status"] == "pass"
    assert rec["result"]["tolerance"] == 0.1
    assert rec["result"] == _run_one({**task, "tolerance": 0.1})["result"]
    bad = _run_one({**task, "tolerance": True})
    assert bad["error"] == "ProblemError: tasks[0].tolerance: expected a number, got a boolean"


def test_ops_that_take_the_dimension_get_the_problem_dimension():
    # log|z1| alone would have dimension 1; the problem's 3 must reach the ops
    problem = {
        "dimension": 3,
        "objects": {
            "w": {"kind": "expr", "expr": {"node": "coord_log", "axis": 1}},
            "phi": {"kind": "monomial_weight", "exponents": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]},
        },
        "tasks": [
            {"op": "classical_lelong_numeric", "w": "w"},
            {"op": "slice_lelong", "w": "w", "k": 1},
            {"op": "sandwich_check", "u": "w", "m_list": [1]},
            {"op": "lelong_bounds_check", "u": "w", "phi": "phi", "m_list": [1]},
        ],
    }
    classical, sliced, sandwich, bounds = execute(parse_problem(problem)).tasks
    # the sphere mean of log|z1| in C^3 is r + E log|w1| = r - 3/4 (r alone in C^1);
    # 16 radial nodes per simplex axis give it to about 1e-2
    level = classical["result"]["per_level"][0]
    assert level["mean"] == pytest.approx(level["r"] - 0.75, abs=0.05)
    assert sliced["error"] == "ValueError: slice estimates are implemented for dimension 2 only"
    for rec in (sandwich, bounds):
        assert rec["error"] == "ValueError: basis construction supports dimensions 1 and 2 only"


# ---------------------------------------------------------------------------
# the README's op table


def test_readme_op_table_names_exactly_the_ops_and_their_slots():
    from lelong.cli import _OPS

    readme = (Path(__file__).parents[1] / "README.md").read_text()
    rows = {}
    for line in readme.splitlines():
        names = re.findall(r"`([a-z_0-9]+)`", line)
        if line.startswith("| `") and names and names[0] in _OPS:
            rows[names[0]] = set(names[1:])
    assert set(rows) == set(_OPS)
    for op, names in rows.items():
        assert names == set(_OPS[op].slots), op
