import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from lelong.cli import ProblemError, emit, execute, main, parse_problem, run_selftest


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
