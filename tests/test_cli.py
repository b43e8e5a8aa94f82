"""CLI surface: commands, exit codes, JSON schema stability."""

import itertools
import json
import math
import warnings

import pytest

from qgrass import cli
from qgrass.cli import main
from qgrass.serialize import graded_from_dict, graded_to_dict, plain_from_dict, plain_to_dict
from qgrass.algebra import AlgebraContext
from qgrass.qstate import PlainState, coherent_state, tensor


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_construct_pass_exit_code(capsys):
    code, out, _ = run_cli(capsys, "construct", "qutrit_psi_pm", "--sign", "+")
    assert code == 0
    assert "match=exact" in out


def test_construct_flagged_entry_still_exits_zero(capsys):
    code, out, _ = run_cli(capsys, "construct", "ghz_n", "--n", "5")
    assert code == 0
    assert "QUBIT_SIGNS" in out


def test_construct_mismatch_exits_one(capsys):
    code, out, _ = run_cli(capsys, "construct", "qutrit_mixed_02_20")
    assert code == 1
    assert "MIXED_RECIPE" in out


def test_construct_unknown_id_exits_two(capsys):
    code, _, err = run_cli(capsys, "construct", "nosuch")
    assert code == 2
    assert "unknown catalog id" in err


def test_construct_json_payload(capsys):
    code, out, _ = run_cli(
        capsys, "construct", "w_n", "--n", "2", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    item = payload["items"][0]
    assert item["id"] == "w_n"
    state = plain_from_dict(item["computed"])
    amp = 1.0 / math.sqrt(2.0)
    assert abs(abs(state.coefficient((0, 1))) - amp) < 1e-9
    assert abs(abs(state.coefficient((1, 0))) - amp) < 1e-9
    assert "QUBIT_SIGNS" in payload["ledger"]


def test_verify_algebra_single_grade(capsys):
    code, out, _ = run_cli(capsys, "verify", "algebra", "--n", "5", "--seed", "9")
    assert code == 0
    assert "algebra.associativity" in out
    assert "algebra.nilpotency" in out


def test_verify_closure_reports_constants(capsys):
    code, out, _ = run_cli(capsys, "verify", "closure", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    by_id = {item["id"]: item for item in payload["items"]}
    lam = complex(*by_id["closure.su_q2.d3"]["lambda"])
    q = complex(math.cos(2 * math.pi / 3), math.sin(2 * math.pi / 3))
    assert abs(lam + 3 * q) < 1e-9
    assert by_id["closure.su_q2.d4"]["residual"] > 0.1
    mu = complex(*by_id["closure.squeeze.d3"]["mu"])
    assert abs(mu + 4.0) < 1e-9


def test_verify_all_exits_zero_with_flags(capsys):
    code, out, _ = run_cli(capsys, "verify", "all", "--seed", "1")
    assert code == 0
    assert "0 fail" in out
    assert "ledger:" in out


def test_verify_deterministic_for_fixed_seed(capsys):
    _, out1, _ = run_cli(capsys, "verify", "all", "--seed", "4", "--format", "json")
    _, out2, _ = run_cli(capsys, "verify", "all", "--seed", "4", "--format", "json")
    assert out1 == out2


def test_solve_weight_cli_round_trip(tmp_path, capsys):
    amp = 1.0 / math.sqrt(3.0)
    spec = {
        "grade_n": 3,
        "factors": [
            {"kind": "coherent", "variable": "theta_1", "d": 3},
            {"kind": "coherent", "variable": "theta_2", "d": 3},
        ],
        "differentials": ["theta_1", "theta_2"],
        "target": {
            "sites": [3, 3],
            "terms": [
                {"coeff": [amp, 0], "ket": [0, 0]},
                {"coeff": [amp, 0], "ket": [1, 1]},
                {"coeff": [amp, 0], "ket": [2, 2]},
            ],
        },
        "basis": {"variables": ["theta_1", "theta_2"]},
    }
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    code, out, _ = run_cli(
        capsys, "solve-weight", "--spec", str(path), "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    item = payload["items"][0]
    assert item["feasible"] is True
    assert item["residual"] < 1e-9
    offdiag = [
        t for t in item["weight"]["terms"] if len(set(t["monomial"].values())) > 1
    ]
    assert offdiag == []


def test_solve_weight_infeasible_single_variable_target(tmp_path, capsys):
    amp = 1.0 / math.sqrt(2.0)
    spec = {
        "grade_n": 3,
        "factors": [
            {"kind": "coherent", "variable": "theta_1", "d": 3},
            {"kind": "coherent", "variable": "theta_1", "d": 3},
        ],
        "differentials": ["theta_1"],
        "target": {
            "sites": [3, 3],
            "terms": [
                {"coeff": [amp, 0], "ket": [0, 2]},
                {"coeff": [amp, 0], "ket": [2, 0]},
            ],
        },
        "basis": {"variables": ["theta_1"]},
    }
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    code, out, _ = run_cli(capsys, "solve-weight", "--spec", str(path))
    assert code == 0
    assert "feasible=False" in out


def test_solve_weight_combination_spec(tmp_path, capsys):
    # linear combination of products: |t>|t> - |-t>|-t> at grade 2 reaches
    # the antidiagonal signature state (|01> - |10>)/sqrt(2)
    amp = 1.0 / math.sqrt(2.0)
    spec = {
        "grade_n": 2,
        "combination": [
            {"coeff": [1, 0], "factors": [
                {"kind": "coherent", "variable": "theta_1", "d": 2},
                {"kind": "coherent", "variable": "theta_1", "d": 2},
            ]},
            {"coeff": [-1, 0], "factors": [
                {"kind": "coherent", "variable": "theta_1", "d": 2, "scale": [-1, 0]},
                {"kind": "coherent", "variable": "theta_1", "d": 2, "scale": [-1, 0]},
            ]},
        ],
        "differentials": ["theta_1"],
        "target": {
            "sites": [2, 2],
            "terms": [
                {"coeff": [amp, 0], "ket": [0, 1]},
                {"coeff": [-amp, 0], "ket": [1, 0]},
            ],
        },
        "basis": {"variables": ["theta_1"]},
    }
    path = tmp_path / "combo.json"
    path.write_text(json.dumps(spec))
    code, out, _ = run_cli(
        capsys, "solve-weight", "--spec", str(path), "--format", "json"
    )
    assert code == 0
    item = json.loads(out)["items"][0]
    assert item["feasible"] is True


def test_solve_weight_malformed_spec_exits_two(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{\"grade_n\": 3}")
    code, _, err = run_cli(capsys, "solve-weight", "--spec", str(path))
    assert code == 2
    assert "malformed" in err


def test_construct_builder_value_error_exits_two(capsys):
    code, out, err = run_cli(capsys, "construct", "ghz_n", "--n", "1")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("entry_id, n", [("qudit_mes_n", 175), ("qudit_squeezed_mes_n", 200),
                                         ("qudit_squeezed_mes_n", 199)])
def test_construct_factorial_overflow_exits_two(capsys, entry_id, n):
    # (n-1)! no longer fits a float: this used to exit 1 with an OverflowError traceback;
    # (i!)**2 leaves the float range from i = 99, which n = 199 reaches
    code, out, err = run_cli(capsys, "construct", entry_id, "--n", str(n))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: bad parameters for {entry_id!r}: ") and err.count("\n") == 1
    # the line names the parameter the user gave
    assert f"got n={n}" in err


# what numpy raises for a dense vector of 2**40 amplitudes (ghz_n --n 40)
_NO_MEMORY = ("Unable to allocate 16.0 TiB for an array with shape (1099511627776,) "
              "and data type complex128")


def _out_of_memory(*args, **kwargs):
    raise MemoryError(_NO_MEMORY)


def test_construct_input_too_large_for_memory_exits_two(capsys, monkeypatch):
    # raised, not allocated: a real oversized vector may be granted by the
    # kernel and exhaust the host on first touch
    monkeypatch.setattr(cli, "catalog_construct", _out_of_memory)
    code, out, err = run_cli(capsys, "construct", "ghz_n", "--n", "40")
    assert code == 2
    assert out == ""
    assert err == f"error: bad parameters for 'ghz_n': {_NO_MEMORY}\n"


def _ghz2_spec(**overrides):
    amp = 1.0 / math.sqrt(2.0)
    spec = {
        "grade_n": 2,
        "factors": [
            {"kind": "coherent", "variable": "theta_1", "d": 2},
            {"kind": "coherent", "variable": "theta_2", "d": 2},
        ],
        "differentials": ["theta_1", "theta_2"],
        "target": {
            "sites": [2, 2],
            "terms": [
                {"coeff": [amp, 0], "ket": [0, 0]},
                {"coeff": [amp, 0], "ket": [1, 1]},
            ],
        },
        "basis": {"variables": ["theta_1", "theta_2"]},
    }
    spec.update(overrides)
    return spec


def test_solve_weight_target_dims_mismatch_exits_two(tmp_path, capsys):
    path = tmp_path / "dims.json"
    target = {"sites": [2, 2, 2], "terms": [{"coeff": [1, 0], "ket": [0, 0, 0]}]}
    path.write_text(json.dumps(_ghz2_spec(target=target)))
    code, out, err = run_cli(capsys, "solve-weight", "--spec", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_solve_weight_empty_basis_exits_two(tmp_path, capsys):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps(_ghz2_spec(basis=[])))
    code, out, err = run_cli(capsys, "solve-weight", "--spec", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("grade", ["1", "0"])
def test_verify_algebra_bad_grade_exits_two(capsys, grade):
    code, out, err = run_cli(capsys, "verify", "algebra", "--n", grade)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_out_into_missing_directory_exits_two(tmp_path, capsys):
    out_path = tmp_path / "missing" / "report.json"
    code, out, err = run_cli(
        capsys, "construct", "w_n", "--n", "3", "--out", str(out_path)
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_report_written_to_file(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys, "verify", "closure", "--format", "json", "--out", str(out_path)
    )
    assert code == 0
    assert out == ""
    payload = json.loads(out_path.read_text())
    assert payload["command"] == "verify"


def test_state_serialization_round_trip():
    ctx = AlgebraContext(3)
    t1, t2 = ctx.theta(1), ctx.theta(2)
    state = tensor([coherent_state(ctx, t1, 3), coherent_state(ctx, t2, 3)])
    data = graded_to_dict(state)
    assert data["grade_n"] == 3 and data["sites"] == [3, 3]
    back = graded_from_dict(data)
    assert back.isclose(state)

    plain = PlainState.from_terms((2, 2), {(0, 1): 0.5j, (1, 0): -0.5})
    assert plain_from_dict(plain_to_dict(plain)).isclose(plain)


@pytest.mark.parametrize("exponent", [0, 3, 4])
def test_graded_from_dict_rejects_exponent_outside_1_to_n_minus_1(exponent):
    data = {
        "grade_n": 3,
        "sites": [3],
        "terms": [{"coeff": [1.0, 0.0], "monomial": {"theta_1": exponent}, "ket": [0]}],
    }
    with pytest.raises(ValueError, match=f"exponent {exponent} of theta_1"):
        graded_from_dict(data)


@pytest.mark.parametrize("suite", ["catalog", "closure", "boson", "all"])
def test_verify_n_outside_algebra_suite_exits_two(capsys, suite):
    code, out, err = run_cli(capsys, "verify", suite, "--n", "5")
    assert code == 2
    assert out == ""
    assert err == "error: --n applies to the algebra suite only\n"


@pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "0"])
def test_non_finite_or_non_positive_tolerance_exits_two(capsys, tol):
    code, out, err = run_cli(capsys, "verify", "all", f"--tol={tol}")
    assert code == 2
    assert out == ""
    assert err.startswith("error: tolerance") and err.count("\n") == 1


@pytest.mark.parametrize("suite", ["algebra", "boson", "all"])
def test_negative_seed_exits_two(capsys, suite):
    code, out, err = run_cli(capsys, "verify", suite, "--seed", "-1")
    assert code == 2
    assert out == ""
    assert err == "error: seed must be non-negative\n"


def test_solve_weight_target_ket_out_of_range_exits_two(tmp_path, capsys):
    path = tmp_path / "ket.json"
    target = {"sites": [2, 2], "terms": [{"coeff": [1, 0], "ket": [0, 7]}]}
    path.write_text(json.dumps(_ghz2_spec(target=target)))
    code, out, err = run_cli(capsys, "solve-weight", "--spec", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "ket (0, 7) out of range for dims (2, 2)" in err


def _qutrit_pair_spec(basis):
    amp = 1.0 / math.sqrt(3.0)
    return {
        "grade_n": 3,
        "factors": [
            {"kind": "coherent", "variable": "theta_1", "d": 3},
            {"kind": "coherent", "variable": "theta_2", "d": 3},
        ],
        "differentials": ["theta_1"],
        "target": {
            "sites": [3, 3],
            "terms": [{"coeff": [amp, 0], "ket": [i, i]} for i in range(3)],
        },
        "basis": basis,
    }


@pytest.mark.parametrize(
    "basis, line",
    [
        ({"variables": ["theta_1", "theta_2"], "max_exponent": 3},
         "exponent 3 of theta_2 lies outside 1..2"),
        ({"variables": ["theta_1", "theta_2"], "max_exponent": 4},
         "exponent 3 of theta_2 lies outside 1..2"),
        ({"variables": ["theta_1", "theta_2"], "max_exponent": -1}, "empty weight basis"),
        ([{"theta_1": 2}, {"theta_1": 0}], "exponent 0 of theta_1 lies outside 1..2"),
    ],
    ids=["max_exponent_n", "max_exponent_above_n", "max_exponent_negative", "zero_exponent"],
)
def test_solve_weight_basis_exponent_out_of_range_exits_two(tmp_path, capsys, basis, line):
    # with max_exponent >= n the first monomial out of range, in product
    # order, is theta_2**n
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(_qutrit_pair_spec(basis)))
    code, out, err = run_cli(capsys, "solve-weight", "--spec", str(path))
    assert code == 2
    assert out == ""
    assert err == f"error: malformed solve spec: {line}\n"


@pytest.mark.parametrize(
    "basis, line",
    [
        ("theta_1", "basis must be a list of monomials or an object, got 'theta_1'"),
        ([1], "a monomial must be an object of variable exponents, got 1"),
        ([{"theta_1": 1}, "x"], "a monomial must be an object of variable exponents, got 'x'"),
        ({"variables": "theta_1"},
         "basis variables must be a list of variable names, got 'theta_1'"),
    ],
    ids=["string_basis", "number_entry", "string_entry", "string_variables"],
)
def test_solve_weight_malformed_basis_exits_two(tmp_path, capsys, basis, line):
    # the listed forms used to exit 1 with an AttributeError traceback, and a
    # string of variables was parsed one character at a time
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(_ghz2_spec(basis=basis)))
    code, out, err = run_cli(capsys, "solve-weight", "--spec", str(path))
    assert code == 2
    assert out == ""
    assert err == f"error: malformed solve spec: {line}\n"  # one line, no traceback


@pytest.mark.parametrize(
    "field, bad, line",
    [
        ("target.terms", {"a": 1}, "target terms must be a list of objects, got {'a': 1}"),
        ("target.terms", [1], "every entry of target terms must be an object, got 1"),
        ("combination", {"factors": []}, "combination must be a list of objects, got {'factors': []}"),
        ("combination", ["x"], "every entry of combination must be an object, got 'x'"),
        ("differentials", "theta_1",
         "differentials must be a list of variable names, got 'theta_1'"),
        ("factors", {"kind": "coherent"}, "factors must be a list of objects, got {'kind': 'coherent'}"),
        ("factors", [[1]], "every entry of factors must be an object, got [1]"),
    ],
    ids=["object_terms", "number_term", "object_combination", "string_part",
         "string_differentials", "object_factors", "list_factor"],
)
def test_solve_weight_malformed_field_exits_two(tmp_path, capsys, field, bad, line):
    # the object forms of terms and combination, and a number among the
    # terms, used to exit 1 with an AttributeError traceback; a string of
    # differentials was parsed one character at a time, and factors given as
    # an object failed on "string indices must be integers"
    path = tmp_path / "spec.json"
    spec = _ghz2_spec()
    if field == "target.terms":
        spec["target"]["terms"] = bad
    else:  # a combination takes the place of the factors
        spec[field] = bad
    path.write_text(json.dumps(spec))
    code, out, err = run_cli(capsys, "solve-weight", "--spec", str(path))
    assert code == 2
    assert out == ""
    assert err == f"error: malformed solve spec: {line}\n"  # one line, no traceback
    assert "Traceback" not in err


def test_serialized_terms_must_be_a_list_of_objects():
    ctx = AlgebraContext(2)
    state = graded_to_dict(coherent_state(ctx, ctx.theta(1), 2))
    for bad, line in [({"a": 1}, "state terms must be a list of objects"),
                      ([1], "every entry of state terms must be an object")]:
        with pytest.raises(ValueError, match=line):
            graded_from_dict({**state, "terms": bad})
        with pytest.raises(ValueError, match=line):
            plain_from_dict({"sites": [2], "terms": bad})


@pytest.mark.parametrize("top", [None, 0, 1])
def test_solve_weight_variables_basis_reports_as_its_listed_monomials(tmp_path, capsys, top):
    variables = {"variables": ["theta_2", "theta_1"]}
    if top is not None:
        variables["max_exponent"] = top
    powers = range((2 if top is None else top) + 1)
    listed = [
        {name: e for name, e in zip(("theta_1", "theta_2"), exps) if e}
        for exps in itertools.product(powers, repeat=2)
    ]
    outs = []
    for basis in (variables, listed):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(_qutrit_pair_spec(basis)))
        code, out, err = run_cli(capsys, "solve-weight", "--spec", str(path), "--format", "json")
        assert code == 0 and err == ""
        outs.append(out)
    assert outs[0] == outs[1]
    assert len(json.loads(outs[0])["items"][0]["basis"]) == len(listed)


def test_list_text_output_is_one_id_per_line(capsys):
    from qgrass.catalog import catalog_ids

    code, out, _ = run_cli(capsys, "list")
    assert code == 0
    assert out == "".join(entry_id + "\n" for entry_id in catalog_ids())


def test_list_honours_format_and_out(tmp_path, capsys):
    from qgrass.catalog import catalog_ids

    out_path = tmp_path / "ids.json"
    code, out, _ = run_cli(capsys, "list", "--format", "json", "--out", str(out_path))
    assert code == 0
    assert out == ""
    payload = json.loads(out_path.read_text())
    assert payload == {
        "command": "list",
        "config": {"tolerance": 1e-9, "seed": 0, "format": "json"},
        "ids": catalog_ids(),
    }


def test_solve_weight_empty_combination_exits_two(tmp_path, capsys):
    spec = _ghz2_spec(combination=[])
    del spec["factors"]
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    code, out, err = run_cli(capsys, "solve-weight", "--spec", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: malformed solve spec: ") and err.count("\n") == 1


@pytest.mark.parametrize("alias", ["theta_01", "theta_+1", "theta_ 1"])
def test_solve_weight_basis_with_a_non_canonical_name_exits_two(tmp_path, capsys, alias):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(_qutrit_pair_spec([{"theta_1": 1, alias: 1}])))
    code, out, err = run_cli(capsys, "solve-weight", "--spec", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: malformed solve spec: ") and err.count("\n") == 1
    assert repr(alias) in err


@pytest.mark.parametrize("field", ["differentials", "factors"])
def test_solve_weight_non_canonical_variable_name_exits_two(tmp_path, capsys, field):
    spec = _qutrit_pair_spec({"variables": ["theta_1", "theta_2"]})
    if field == "differentials":
        spec["differentials"] = ["theta_01"]
    else:
        spec["factors"][0]["variable"] = "theta_01"
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    code, out, err = run_cli(capsys, "solve-weight", "--spec", str(path))
    assert code == 2
    assert out == ""
    assert err == "error: malformed solve spec: cannot parse variable name 'theta_01'\n"


@pytest.mark.parametrize(
    "where, bad",
    [("exponent", 1.9), ("exponent", True), ("ket", 0.5)],
    ids=["fractional_exponent", "boolean_exponent", "fractional_ket"],
)
def test_solve_weight_non_integral_number_exits_two(tmp_path, capsys, where, bad):
    # int() used to truncate these: theta_1^1.9 solved as theta_1^1, |0 0.5> as |00>
    if where == "exponent":
        spec = _qutrit_pair_spec([{"theta_1": bad}])
    else:
        target = {"sites": [2, 2], "terms": [{"coeff": [1, 0], "ket": [0, bad]}]}
        spec = _ghz2_spec(target=target)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    code, out, err = run_cli(capsys, "solve-weight", "--spec", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: malformed solve spec: ") and err.count("\n") == 1
    assert repr(bad) in err


@pytest.mark.parametrize(
    "field, bad",
    [("grade_n", 2.5), ("grade_n", True), ("d", 2.7), ("d", "2"), ("squeezed_d", 3.5),
     ("max_exponent", True), ("max_exponent", 0.5)],
    ids=["fractional_grade", "boolean_grade", "fractional_d", "string_d", "fractional_squeezed_d",
         "boolean_max_exponent", "fractional_max_exponent"],
)
def test_solve_weight_spec_integers_must_be_integral(tmp_path, capsys, field, bad):
    # int() used to truncate these: grade_n 2.5 with d 2.7 solved at grade 2 with
    # d = 2, and a max_exponent of true built the basis up to exponent 1
    spec = _ghz2_spec()
    if field == "grade_n":
        spec["grade_n"] = bad
    elif field == "d":
        spec["factors"][0]["d"] = bad
    elif field == "max_exponent":
        spec["basis"]["max_exponent"] = bad
    else:
        spec["factors"][0] = {"kind": "squeezed_exp", "variable": "theta_1", "d": bad}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    code, out, err = run_cli(capsys, "solve-weight", "--spec", str(path))
    assert code == 2
    assert out == ""
    assert err == f"error: malformed solve spec: {field.removeprefix('squeezed_')} must be an integer, got {bad!r}\n"

    # integral floats are integers, as elsewhere in a spec
    spec = _ghz2_spec(grade_n=2.0)
    spec["factors"][0]["d"] = 2.0
    spec["basis"]["max_exponent"] = 1.0
    path.write_text(json.dumps(spec))
    code, out, _ = run_cli(capsys, "solve-weight", "--spec", str(path))
    assert code == 0 and "PASS    solve_weight residual=0 feasible=True rank=4" in out


@pytest.mark.parametrize(
    "where, bad",
    [("scale", [1.0]), ("scale", 0), ("scale", []), ("scale", None), ("scale", [1, "0"]),
     ("coeff", [1.0]), ("coeff", [True, 0]), ("target", [1.0]), ("target", [math.inf, 0]),
     ("target", [0, math.nan])],
    ids=["one_element_scale", "number_scale", "empty_scale", "null_scale", "string_in_scale",
         "one_element_coeff", "boolean_coeff", "one_element_target", "infinite_target",
         "nan_target"],
)
def test_solve_weight_complex_pair_must_be_two_finite_reals(tmp_path, capsys, where, bad):
    # these used to raise an uncaught IndexError, write "residual": NaN, or mean 1
    spec = _ghz2_spec()
    if where == "scale":
        spec["factors"][0]["scale"] = bad
    elif where == "coeff":
        spec["combination"] = [{"coeff": bad, "factors": spec.pop("factors")}]
    else:
        spec["target"]["terms"][0]["coeff"] = bad
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    code, out, err = run_cli(capsys, "solve-weight", "--spec", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: malformed solve spec: ") and err.count("\n") == 1
    assert "two finite real numbers" in err


@pytest.mark.parametrize("where", ["scale", "target"])
def test_solve_weight_overflow_exits_two(tmp_path, capsys, where):
    # finite but huge numbers used to write "residual": NaN, which is not JSON, and exit 0
    spec = _ghz2_spec()
    if where == "scale":
        for factor in spec["factors"]:
            factor["scale"] = [1e200, 0]
    else:  # on |11>, which the one basis column does not reach
        spec["target"]["terms"][1]["coeff"] = [1e308, 1e308]
        spec["basis"] = [{"theta_1": 1, "theta_2": 1}]
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")  # outside pytest, each would print to stderr
        code, out, err = run_cli(capsys, "solve-weight", "--spec", str(path))
    assert [str(w.message) for w in caught] == []
    assert code == 2
    assert out == ""
    assert err.startswith("error: malformed solve spec: ") and err.count("\n") == 1
    assert "overflowed" in err and "Traceback" not in err


def test_solve_weight_input_too_large_for_memory_exits_two(tmp_path, capsys, monkeypatch):
    # a target on 40 qubit sites asks plain_from_dict for 2**40 amplitudes
    monkeypatch.setattr(cli, "plain_from_dict", _out_of_memory)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(_ghz2_spec()))
    code, out, err = run_cli(capsys, "solve-weight", "--spec", str(path))
    assert code == 2
    assert out == ""
    assert err == f"error: malformed solve spec: {_NO_MEMORY}\n"


def test_serialized_numbers_must_be_integral():
    ctx = AlgebraContext(2)
    state = graded_to_dict(tensor([coherent_state(ctx, ctx.theta(1), 2)] * 2))
    assert graded_from_dict({**state, "grade_n": 2.0}).terms == graded_from_dict(state).terms
    for key, bad in [("grade_n", 2.5), ("grade_n", True), ("sites", [2, "2"])]:
        with pytest.raises(ValueError, match="must be an integer"):
            graded_from_dict({**state, key: bad})
    with pytest.raises(ValueError, match="must be an integer"):
        plain_from_dict({"sites": [2, 1.5], "terms": []})


@pytest.mark.parametrize("argv, builder", [
    (("qutrit_psi22", "--n", "3"), "_qutrit_psi22"),
    (("w_n", "--omega-power", "2"), "_w_n"),
    (("qudit_mes_n", "--sign", "+"), "_qudit_mes"),
])
def test_construct_unknown_parameter_exits_two_without_builder_name(capsys, argv, builder):
    code, out, err = run_cli(capsys, "construct", *argv)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: bad parameters for {argv[0]!r}: {argv[0]} takes ")
    assert err.count("\n") == 1 and builder not in err
