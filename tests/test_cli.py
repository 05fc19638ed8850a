import json
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lelong.cli import (MAX_EXPR_DEPTH, ProblemError, _flatten, _json, _round_floats, emit, execute, main,
                        parse_problem, run_selftest)
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


def _dumps(x) -> str:
    """The text the writer must give: json's pure-Python indented encoder."""
    return json.dumps(_round_floats(x), sort_keys=True, indent=2)


def _rounded_rows(prefix: str, value, rows: list) -> list:
    """The rows text and CSV reports must give: the leaves of the rounded tree through json.dumps."""
    if isinstance(value, dict):
        for k in sorted(value):
            _rounded_rows(f"{prefix}.{k}" if prefix else k, value[k], rows)
    elif isinstance(value, list):
        for i, v in enumerate(value):
            _rounded_rows(f"{prefix}[{i}]", v, rows)
    else:
        rows.append((prefix, json.dumps(value)))
    return rows


_FLOATS = [0.0, -0.0, float("inf"), -float("inf"), float("nan"), 5e-324, -2.5e-320, 1e16, -1e16, 1e22,
           0.1 + 0.2, 1.0000000000005, 1.00000000000049, 0.1234567890125, 999999999999.5,
           9.9999999999995, 123456789012345.6, 1.7976931348623157e308]
_leaves = st.one_of(
    st.text(max_size=6),
    st.sampled_from(['"', "\\", "\x00\x1f\x7f", "caf\u00e9 \u20ac \U0001f600", "\u2028\ud800", "a/b\n\t"]),
    st.integers(-2**70, 2**70),
    st.sampled_from([10**40, -(10**40), True, False, None]),
    st.floats(),
    st.sampled_from(_FLOATS),
)
_trees = st.recursive(_leaves, lambda kids: st.one_of(
    st.lists(kids, max_size=4),
    st.lists(kids, max_size=3).map(tuple),
    st.dictionaries(st.text(max_size=4), kids, max_size=4),
), max_leaves=24)


@settings(max_examples=250, deadline=None, derandomize=True)
@given(_trees)
@example({})
@example([])
@example(())
@example({"a": [], "b": {}, "c": [{}], "": ()})
@example(_FLOATS)
def test_writer_gives_the_bytes_of_json_dumps(tree):
    assert "".join(_json(tree, "\n", [])) == _dumps(tree)
    assert _flatten("", tree, []) == _rounded_rows("", _round_floats(tree), [])


def test_writer_rejects_what_json_rejects():
    from fractions import Fraction

    for x in (Fraction(1, 2), [1, {"a": 1j}]):
        with pytest.raises(TypeError, match="is not JSON serializable"):
            _dumps(x)
        with pytest.raises(TypeError, match="is not JSON serializable"):
            _json(x, "\n", [])


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


def test_main_run_direction_of_the_wrong_length_is_a_task_error(tmp_path, capsys):
    # too short used to fail with a bare IndexError, too long ran on a 256^3 grid
    prob = {
        "dimension": 2,
        "objects": {"w": {"kind": "expr", "expr": {"node": "poly_log", "terms": [
            {"coeff": [1, 0], "exponent": [2, 0]}, {"coeff": [1, 0], "exponent": [0, 3]}]}}},
        "tasks": [
            {"op": "directional_lelong_numeric", "w": "w", "a": [1]},
            {"op": "directional_lelong_numeric", "w": "w", "a": [1, 1, 1]},
            {"op": "indicator_profile", "w": "w", "directions": [[1], [1, 1], [1, 1, 1]]},
        ],
    }
    path = tmp_path / "prob.json"
    path.write_text(json.dumps(prob))
    main(["run", str(path), "--format", "json"])
    short, long, profile = json.loads(capsys.readouterr().out)["tasks"]
    for task in (short, long):
        assert task["status"] == "error"
        assert task["error"] == "ValueError: direction dimension mismatch"
    assert profile["status"] == "ok"
    entries = profile["result"]["profile"]
    assert [e["error"] for e in entries] == ["direction dimension mismatch", None,
                                              "direction dimension mismatch"]
    assert entries[1]["value"] == 2.0


def test_main_run_empty_m_list_is_a_task_error(tmp_path, capsys):
    # a check over no level checks nothing, and used to report pass
    prob = {
        "dimension": 2,
        "objects": {
            "u": {"kind": "expr", "expr": {"node": "max", "children": [
                {"node": "coord_log", "axis": 1}, {"node": "coord_log", "axis": 2}]}},
            "phi": {"kind": "monomial_weight", "exponents": [[1, 0], [0, 1]]},
        },
        "tasks": [
            {"op": "sandwich_check", "u": "u", "m_list": []},
            {"op": "lelong_bounds_check", "u": "u", "phi": "phi", "m_list": []},
            {"op": "sandwich_check", "u": "u", "m_list": [1], "degree_cap": 4},
        ],
    }
    path = tmp_path / "prob.json"
    path.write_text(json.dumps(prob))
    main(["run", str(path), "--format", "json"])
    sandwich, bounds, control = json.loads(capsys.readouterr().out)["tasks"]
    for task in (sandwich, bounds):
        assert task["status"] == "error"
        assert task["error"] == "ValueError: m_list must not be empty"
    assert control["status"] == "pass"


def _chain(tag: str, depth: int) -> dict:
    """A 1-D expression with `depth` nodes on its one path: max or scale nodes over coord_log."""
    node = {"node": "coord_log", "axis": 1}
    for _ in range(depth - 1):
        node = {"node": "max", "children": [node]} if tag == "max" else {"node": "scale", "factor": 1, "child": node}
    return {"dimension": 1, "objects": {"u": {"kind": "expr", "expr": node}},
            "tasks": [{"op": "classical_lelong_numeric", "w": "u"},
                      {"op": "sandwich_check", "u": "u", "m_list": [1, 2]},
                      {"op": "scaling_transform", "w": "u", "m": 2}]}


@pytest.mark.parametrize("tag", ["max", "scale"])
def test_expression_depth_limit(tag):
    # 360 nested max nodes used to parse and then end two tasks in a bare RecursionError
    where = "objects.u.expr" + (".children[0]" if tag == "max" else ".child") * MAX_EXPR_DEPTH
    assert _parse_error(_chain(tag, MAX_EXPR_DEPTH + 1)) == (
        f"{where}: expression nested deeper than {MAX_EXPR_DEPTH} nodes")
    classical, sandwich, transform = execute(parse_problem(_chain(tag, MAX_EXPR_DEPTH))).tasks
    assert classical["status"] == "ok" and classical["result"]["value"] == pytest.approx(1.0, abs=1e-9)
    assert sandwich["status"] == "pass"
    assert transform["status"] == "ok"


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


_TWO_TASKS = {
    "dimension": 2,
    "objects": {
        "w1": {"kind": "monomial_weight", "exponents": [[2, 0], [0, 3]]},
        "cusp": {"kind": "polynomial_log", "terms": [{"coeff": [1, 0], "exponent": [2, 0]},
                                                      {"coeff": [1, 0], "exponent": [0, 3]}]},
    },
    "tasks": [{"op": "newton_number", "phi": "w1"},
              {"op": "directional_lelong_numeric", "w": "cusp", "a": [1, 1]}],
}


def _exit_code(argv) -> int:
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


# (flags, problem file bytes or None for _TWO_TASKS, text the error line holds)
_BAD_RUNS = [
    (["--levels", "1"], None, "error: a schedule needs at least two levels"),
    (["--levels", "x"], None, "error: --levels: bad rational string 'x'"),
    (["--levels", "100000000"], None, "error: levels must be negative"),
    (["--nodes", "10"], None, "error: angular_nodes must be at least 64"),
    (["--nodes", "64.5"], None, 'error: --nodes: expected an integer, got "64.5"'),
    (["--tol", "nan"], None, "error: --tol: bad rational string 'nan'"),
    (["--tol", "inf"], None, "error: --tol: bad rational string 'inf'"),
    (["--rmin", "nan"], None, "error: --rmin: bad rational string 'nan'"),
    (["--rmin", "0"], None, "error: levels must be negative"),
    (["--rmin", "5"], None, "error: levels must be negative"),
    (["--format", "xml"], None, "error: argument --format: invalid choice: 'xml'"),
    (["--out", "{tmp}/missing/report.json"], None, "error: --out: [Errno 2] No such file or directory"),
    ([], b'{"dimension": 2, "objects": {}, "tasks": [], "name": "caf\xe9"}', "prob.json: not UTF-8 text"),
    ([], b"[" * 100000 + b"]" * 100000, "prob.json: JSON nested too deeply"),
]


@pytest.mark.parametrize("flags, content, message", _BAD_RUNS,
                         ids=[" ".join(flags) or message.split(": ")[1] for flags, _, message in _BAD_RUNS])
def test_bad_flags_and_inputs_end_in_one_error_line(flags, content, message, tmp_path, capsys):
    path = tmp_path / "prob.json"
    path.write_bytes(content or json.dumps(_TWO_TASKS).encode())
    start = time.perf_counter()
    code = _exit_code(["run", str(path), *(f.format(tmp=tmp_path) for f in flags)])
    elapsed = time.perf_counter() - start
    out, err = capsys.readouterr()
    assert (code, out) == (1, "")
    assert elapsed < 1.0
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err, err
    assert message in err, err


@pytest.mark.parametrize("argv", [[], ["frobnicate"], ["run"], ["selftest", "--bogus"]],
                         ids=lambda argv: " ".join(argv) or "no command")
def test_usage_errors_exit_1(argv, capsys):
    assert _exit_code(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1


def test_good_flags_read_like_their_slots(tmp_path, capsys):
    # a flag takes what its slot takes, such as a rational or a decimal
    # with an exponent, and a decimal gives the float argparse's float gave
    path = tmp_path / "prob.json"
    path.write_text(json.dumps(_TWO_TASKS))
    flags = ["--rmin=-81/4", "--levels", "3", "--nodes", "64", "--tol", "5e-2", "--format", "json"]
    assert main(["run", str(path), *flags]) == 0
    config = json.loads(capsys.readouterr().out)["config"]
    assert config["schedule"] == {"levels": [-5.0625, -10.125, -20.25], "nodes": 64,
                                  "extrapolation": "richardson_linear_in_1/r"}
    assert config["tolerance"] == 0.05


def test_parse_rejects_bytes_that_are_not_utf8(tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes('{"dimension": 1, "objects": {"caf\u00e9": 1}, "tasks": []}'.encode("latin-1"))
    with pytest.raises(ProblemError, match="^" + re.escape(f"{path}: not UTF-8 text")):
        parse_problem(str(path))
    with open(path, encoding="utf-8") as fh:
        with pytest.raises(ProblemError, match="^<stream>: not UTF-8 text"):
            parse_problem(fh, name="<stream>")


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


def test_golden_report_calls_no_least_squares(monkeypatch, capsys):
    # the Richardson fit is a closed-form line: with LAPACK's least squares
    # and SVD gone, every op still gives the golden bytes (numpy.roots, in
    # the rank-one closed form, is the one LAPACK call left)
    import numpy as np

    def gone(*args, **kwargs):
        raise AssertionError("LAPACK least squares called")

    for name in ("lstsq", "svd"):
        monkeypatch.setattr(np.linalg, name, gone)
    args = ["run", str(OPS_PROBLEM), "--nodes", "64", "--levels", "3", "--rmin", "-20", "--format", "json"]
    assert main(args) == 1
    assert capsys.readouterr().out.encode() == (GOLDEN / "ops_report.json").read_bytes()


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


@pytest.mark.parametrize("task, where, got", [
    ({"op": "directional_lelong_exact", "u": "tri", "a": "11"}, "a", '"11"'),
    ({"op": "directional_lelong_numeric", "w": "cusp", "a": "11"}, "a", '"11"'),
    ({"op": "indicator_profile", "w": "cusp", "directions": ["11"]}, "directions[0]", '"11"'),
    ({"op": "sandwich_check", "u": "pl", "m_list": "12"}, "m_list", '"12"'),
    ({"op": "sandwich_check", "u": "pl", "m_list": {"1": 2}}, "m_list", '{"1": 2}'),
])
def test_list_slots_accept_only_json_lists(task, where, got):
    # a string would otherwise be read character by character
    rec = _run_one(task)
    assert rec["status"] == "error"
    assert rec["error"] == f"ProblemError: tasks[0].{where}: expected a list, got {got}"


@pytest.mark.parametrize("levels, error", [
    (-5, "tasks[0].schedule.levels: expected a list, got -5"),
    ([-5, True], "tasks[0].schedule.levels[1]: expected a number, got a boolean"),
    (["deep", -5], "tasks[0].schedule.levels[0]: bad rational string 'deep': "
                   "Invalid literal for Fraction: 'deep'"),
    ([-5, -2], "tasks[0].schedule: levels must be strictly decreasing"),
])
def test_schedule_levels_errors_name_the_entry_once(levels, error):
    task = {"op": "directional_lelong_numeric", "w": "cusp", "a": [1, 1], "schedule": {"levels": levels}}
    assert _run_one(task)["error"] == f"ProblemError: {error}"


def test_schedule_levels_read_exact_rationals():
    task = {"op": "directional_lelong_numeric", "w": "cusp", "a": [1, 1]}
    rec = _run_one({**task, "schedule": {"levels": ["-5/2", -10, [-20, 1]]}})
    assert rec["status"] == "ok"
    assert rec["result"] == _run_one({**task, "schedule": {"levels": [-2.5, -10, -20]}})["result"]


def test_tolerance_reads_exact_rationals():
    task = {"op": "lelong_bounds_check", "u": "pl", "phi": "axes", "m_list": [1]}
    rec = _run_one({**task, "tolerance": "1/10"})
    assert rec["status"] == "pass"
    assert rec["result"]["tolerance"] == 0.1
    assert rec["result"] == _run_one({**task, "tolerance": 0.1})["result"]
    bad = _run_one({**task, "tolerance": True})
    assert bad["error"] == "ProblemError: tasks[0].tolerance: expected a number, got a boolean"


_NAN, _INF, _BIG = float("nan"), float("inf"), 10**400


@pytest.mark.parametrize("task, where, got", [
    ({"op": "swept_measure_apply", "phi": "axes", "w": "cusp", "r": _NAN, "nodes": 64}, "r", "NaN"),
    ({"op": "swept_measure_apply", "phi": "axes", "w": "cusp", "r": -_BIG, "nodes": 64}, "r", f"-{_BIG}"),
    ({"op": "directional_lelong_numeric", "w": "cusp", "a": [_NAN, 1]}, "a[0]", "NaN"),
    ({"op": "indicator_profile", "w": "cusp", "directions": [[1, 1], [_INF, 1]]},
     "directions[1][0]", "Infinity"),
    ({"op": "directional_lelong_numeric", "w": "cusp", "a": [1, 1], "schedule": {"levels": [-5, _NAN]}},
     "schedule.levels[1]", "NaN"),
    ({"op": "directional_lelong_numeric", "w": "cusp", "a": [1, 1], "schedule": {"levels": ["-1e400"]}},
     "schedule.levels[0]", '"-1e400"'),
    ({"op": "lelong_bounds_check", "u": "pl", "phi": "axes", "m_list": [1], "tolerance": -_INF},
     "tolerance", "-Infinity"),
    ({"op": "lelong_bounds_check", "u": "pl", "phi": "axes", "m_list": [1], "tolerance": [_BIG, 3]},
     "tolerance", f"[{_BIG}, 3]"),
], ids=["float", "float-overflow", "floats", "float_rows", "levels", "levels-overflow", "tolerance",
        "tolerance-overflow"])
def test_float_slots_reject_non_finite_values(task, where, got):
    # json reads NaN and Infinity; each used to run (or fail late) as a float
    rec = _run_one(task)
    assert rec["status"] == "error"
    assert rec["error"] == f"ProblemError: tasks[0].{where}: expected a finite number, got {got}"


def test_ops_that_take_the_dimension_get_the_problem_dimension():
    # log|z1| alone would have dimension 1; the problem's 3 must reach the ops
    problem = {
        "dimension": 3,
        "objects": {
            "w": {"kind": "expr", "expr": {"node": "coord_log", "axis": 1}},
            "v": {"kind": "expr", "expr": {"node": "neg_pow_log", "axis": 1, "power": "1/2"}},
            "phi": {"kind": "monomial_weight", "exponents": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]},
        },
        "tasks": [
            {"op": "classical_lelong_numeric", "w": "w"},
            {"op": "slice_lelong", "w": "w", "k": 1},
            {"op": "sandwich_check", "u": "w", "m_list": [1]},
            {"op": "lelong_bounds_check", "u": "w", "phi": "phi", "m_list": [1]},
            {"op": "sandwich_check", "u": "v", "m_list": [1]},
        ],
    }
    classical, sliced, sandwich, bounds, quadrature = execute(parse_problem(problem)).tasks
    # the sphere mean of log|z1| in C^3 is r + E log|w1| = r - 3/4 (r alone in C^1);
    # 16 radial nodes per simplex axis give it to about 1e-2
    level = classical["result"]["per_level"][0]
    assert level["mean"] == pytest.approx(level["r"] - 0.75, abs=0.05)
    assert sliced["error"] == "ValueError: slice estimates are implemented for dimension 2 only"
    # a piecewise-linear weight gets an exact 3-D basis, whose sample points are 3-D
    assert sandwich["status"] == bounds["status"] == "pass"
    assert bounds["result"]["exact"] == "1"
    assert bounds["result"]["estimates_by_m"]["1"]["estimate"] == pytest.approx(1.0, abs=1e-6)
    # the shell quadrature stays two-dimensional
    assert quadrature["error"] == "ValueError: basis construction supports dimensions 1 and 2 only"


def test_oversized_bergman_tasks_are_task_errors():
    # 9^12 exponents for a default basis of log|z1| in C^12, 6^12 default
    # sample points for a one-entry basis; each is refused before any work,
    # and the other tasks of the run still report
    problem = {
        "dimension": 12,
        "objects": {
            "w": {"kind": "expr", "expr": {"node": "coord_log", "axis": 1}},
            "v": {"kind": "expr", "expr": {"node": "neg_pow_log", "axis": 1, "power": "1/2"}},
            "phi": {"kind": "monomial_weight", "exponents": [[int(i == k) for i in range(12)] for k in range(12)]},
        },
        "tasks": [
            {"op": "sandwich_check", "u": "w", "m_list": [1]},
            {"op": "sandwich_check", "u": "v", "m_list": [1]},
            {"op": "sandwich_check", "u": "w", "m_list": [1], "degree_cap": 0},
            {"op": "lelong_bounds_check", "u": "w", "phi": "phi", "m_list": [1]},
            {"op": "tau", "phi": "phi", "k": 12},
        ],
    }
    pl, quadrature, points, bounds, tau = execute(parse_problem(problem)).tasks
    assert pl["error"] == "ValueError: 9^12 basis exponents exceed the limit of 65536"
    assert quadrature["error"] == "ValueError: basis construction supports dimensions 1 and 2 only"
    assert points["error"] == "ValueError: 6^12 default sample points exceed the limit of 65536"
    assert bounds["error"] == pl["error"]
    assert tau["status"] == "ok" and tau["result"]["value"] == "1"


def test_huge_scale_factor_is_a_task_error():
    # the slope 1e12 asks for a default cap of 2e12 + 2 exponents per axis
    huge = {"kind": "expr", "expr": {"node": "scale", "factor": 1e12,
                                     "child": {"node": "coord_log", "axis": 1}}}
    rec = _run_one({"op": "sandwich_check", "u": "huge", "m_list": [1]}, {"huge": huge})
    assert rec["error"] == "ValueError: 2000000000001^2 basis exponents exceed the limit of 65536"


@pytest.mark.parametrize("factor, got", [(float("inf"), "Infinity"), (float("-inf"), "-Infinity"),
                                         (float("nan"), "NaN")])
def test_non_finite_scale_factor_is_a_parse_error(factor, got):
    problem = minimal_problem()
    problem["objects"]["s"] = {"kind": "expr", "expr": {
        "node": "max", "children": [{"node": "scale", "factor": factor,
                                     "child": {"node": "coord_log", "axis": 1}}]}}
    assert _parse_error(problem) == (
        f"objects.s.expr.children[0].factor: expected a finite number, got {got}")


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
