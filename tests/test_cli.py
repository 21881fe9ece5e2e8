import json
import sys

import pytest

from weylbundles import acceptance, cli, numrep
from weylbundles.grading import MAX_SIZE_BOUND
from weylbundles.cli import main
from weylbundles.config import PRESETS, config_from_dict, load_config, poly_from_roots, preset
from weylbundles.connection import MAX_IDEMPOTENT_LEVEL, MAX_LEVEL
from weylbundles.expr import MAX_EXPONENT, MAX_NESTING
from weylbundles.poly import UniPoly, frac
from weylbundles.traces import MAX_TRACE_BOUND, MAX_TRACE_PAIRS


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    records = [json.loads(line) for line in captured.out.splitlines() if line]
    return code, records, captured.err


# -- configuration ------------------------------------------------------

def test_poly_from_roots_normalization():
    assert poly_from_roots([["0", 2], ["1", 1]]) == UniPoly({2: 1, 3: -1})
    assert poly_from_roots([["0", 1], ["1", 1]]) == UniPoly({1: 1, 2: -1})


def test_presets():
    sphere = preset("sphere")
    assert sphere.p == UniPoly({1: 1, 2: -1})
    assert sphere.q == 4 and sphere.zetas == (frac(1),)

    lens = preset("lens(1,1,2)")
    assert lens.p == sphere.p and lens.q_plus == 2

    lens2 = preset("lens(2,1,2)")
    assert lens2.p == UniPoly({2: 1, 3: -1})
    assert lens2.ambient_algebra().k == 2

    lens22 = preset("lens(2,2,2)")
    assert lens22.zetas == (frac(1), frac(4))
    assert lens22.q == 16 and lens22.q_plus == 4

    kle = preset("kleinian-demo")
    assert kle.p == UniPoly({2: 2, 3: -3, 4: 1})
    assert kle.zetas == (frac(1), frac(2))

    with pytest.raises(ValueError):
        preset("torus")


def test_config_from_dict_and_file(tmp_path):
    data = {
        "p": {"roots": [["0", 1], ["1", 1]]},
        "q_plus": "2", "q_minus": "2", "r": "0", "zeta": "1",
    }
    cfg = config_from_dict(data)
    assert cfg.p == preset("sphere").p and cfg.zetas == (frac(1),)

    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "p": {"coeffs": ["0", "0", "2", "-3", "1"]},
        "q_plus": "3", "q_minus": "1", "zetas": ["1", "2"],
    }))
    cfg = load_config(str(path))
    assert cfg.p == preset("kleinian-demo").p
    assert cfg.zetas == (frac(1), frac(2))

    with pytest.raises(ValueError):
        config_from_dict({"p": {}, "q_plus": "2", "q_minus": "2"})


# -- commands ------------------------------------------------------------

def test_normalize_gwa(capsys):
    code, records, _ = run_cli(capsys, "--preset", "sphere", "normalize", "y*x")
    assert code == 0
    assert records[0]["algebra"] == "gwa"
    assert records[0]["result"] == "(z - z^2)"


def test_normalize_ambient(capsys):
    code, records, _ = run_cli(capsys, "--preset", "sphere", "normalize", "xp*xm")
    assert code == 0
    assert records[0]["algebra"] == "ambient"
    assert records[0]["result"] == "(1 - zp*zm)"


def test_normalize_mixed_generators_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "normalize", "x*zp")
    assert code == 2 and "generators" in err


def test_mixed_generators_are_named_before_syntax_errors(capsys):
    assert "mixed or unknown generators: ['x', 'xp']" in usage_error(capsys, "normalize", "x*xp +")


def test_mul(capsys):
    code, records, _ = run_cli(capsys, "--preset", "sphere", "mul", "z", "x")
    assert code == 0
    assert records[0]["result"] == "x*(1/4*z)"


def test_connection_command(capsys):
    code, records, _ = run_cli(capsys, "--preset", "sphere", "connection", "--n", "2")
    assert code == 0
    rec = records[0]
    assert rec["evaluates_to_one"] and rec["recursions_agree"]
    assert len(rec["pairs"]) == 4


def test_idempotent_command(capsys):
    code, records, _ = run_cli(capsys, "--preset", "lens(2,1,2)", "idempotent", "--n", "1")
    assert code == 0
    rec = records[0]
    assert rec["size"] == 2 and rec["squares_to_itself"]


def test_chern_command_defaults_to_preset_roots(capsys):
    code, records, _ = run_cli(capsys, "--preset", "sphere", "chern", "--n", "2")
    assert code == 0
    assert records[0] == {
        "check": "chern", "params": {"n": 2, "zeta": "1"},
        "expected": "-2", "got": "-2", "pass": True,
    }


def test_chern_command_all_roots(capsys):
    code, records, _ = run_cli(capsys, "--preset", "kleinian-demo", "chern", "--n", "-1")
    assert code == 0
    assert [r["params"]["zeta"] for r in records] == ["1", "2"]
    assert all(r["got"] == "1" for r in records)


def test_chern_rejects_non_root(capsys):
    code, _, err = run_cli(capsys, "--preset", "sphere", "chern", "--n", "1",
                           "--zeta", "7")
    assert code == 2 and "root" in err


@pytest.mark.parametrize("name", PRESETS)
@pytest.mark.parametrize("command", ["chern", "connection"])
def test_tensor_commands_at_the_level_cap(capsys, name, command):
    code, records, _ = run_cli(capsys, "--preset", name, command, "--n", str(MAX_LEVEL))
    assert code == 0 and records and all(r["pass"] for r in records)


@pytest.mark.parametrize("command,n", [
    ("chern", MAX_LEVEL + 1), ("chern", -MAX_LEVEL - 1), ("chern", 1000),
    ("connection", MAX_LEVEL + 1),
    ("idempotent", MAX_IDEMPOTENT_LEVEL + 1), ("idempotent", -MAX_IDEMPOTENT_LEVEL - 1),
])
def test_level_beyond_the_cap_is_usage_error(capsys, command, n):
    cap = MAX_IDEMPOTENT_LEVEL if command == "idempotent" else MAX_LEVEL
    error = usage_error(capsys, "--preset", "kleinian-demo", command, "--n", str(n))
    assert f"level {n} needs" in error and f"the cap is |n| <= {cap}" in error


def test_removed_level_cap_flag_is_usage_error(capsys):
    error = usage_error(capsys, "chern", "--n", "1", "--max-level", "5")
    assert "unrecognized arguments: --max-level 5" in error


@pytest.mark.parametrize("args,message", [
    (("chern", "--n", "x"), "argument --n: invalid int value: 'x'"),
    (("chern", "--n", "1", "--bogus"), "unrecognized arguments: --bogus"),
    (("nosuchcmd",), "invalid choice: 'nosuchcmd'"),
    (("normalize",), "the following arguments are required: expr"),
])
def test_bad_command_line_is_usage_error(capsys, args, message):
    assert message in usage_error(capsys, *args)


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0 and "usage: weylbundles" in capsys.readouterr().out


def test_trace_check_command(capsys):
    code, records, _ = run_cli(capsys, "--preset", "sphere", "trace-check",
                               "--bound", "2", "--pairs", "10")
    assert code == 0
    assert records[-1]["check"] == "trace-axioms" and records[-1]["pass"]


def test_grading_check_veronese(capsys):
    code, records, _ = run_cli(capsys, "--preset", "lens(2,1,2)", "grading-check",
                               "--degree", "1", "--bound", "4", "--veronese", "2")
    assert code == 0
    rec = records[0]
    assert rec["found"] and rec["verified"]


def test_grading_check_none_within_bound(capsys):
    code, records, _ = run_cli(capsys, "--preset", "lens(2,1,2)", "grading-check",
                               "--degree", "1", "--bound", "8")
    assert code == 0
    rec = records[0]
    assert rec["found"] is False and "none within bound 8" in rec["note"]


def test_grading_check_absent_note_names_the_combination(capsys):
    # one of the products touches the unit monomial; only no combination equals 1
    code, records, _ = run_cli(capsys, "--preset", "kleinian-demo", "grading-check",
                               "--degree", "1", "--bound", "3", "--veronese", "2")
    assert code == 0
    note = records[0]["note"]
    assert records[0]["found"] is False
    assert "no rational combination" in note and "reaches the unit" not in note


def test_grading_check_quotient(capsys):
    code, records, _ = run_cli(capsys, "--preset", "lens(2,1,2)", "grading-check",
                               "--degree", "1", "--bound", "6", "--quotient", "2")
    assert code == 0
    assert records[0]["found"] is False


def test_rep_check(capsys):
    code, records, _ = run_cli(capsys, "--preset", "sphere", "rep-check",
                               "--zeta", "1", "--dim", "12")
    assert code == 0
    trunc = records[-1]
    assert trunc["check"] == "truncated-rep" and trunc["pass"]
    assert trunc["params"]["q"] == "1/4"


def test_text_mode(capsys):
    code = main(["--preset", "sphere", "--text", "chern", "--n", "1"])
    out = capsys.readouterr().out
    assert code == 0 and out.startswith("PASS")


def test_verify_all_exits_zero(capsys, monkeypatch):
    # the real criteria run, through the same summarize, in test_acceptance
    passing = {"check": "fake", "params": {}, "expected": "1", "got": "1", "pass": True}
    monkeypatch.setattr(acceptance, "CRITERIA", tuple(
        (f"{i}-passes", "passing checks", lambda i=i: [passing] * i) for i in (1, 2, 3)))
    code, records, _ = run_cli(capsys, "verify-all")
    assert code == 0
    assert [(r["criterion"], r["checks"], r["pass"]) for r in records[:-1]] == [
        ("1-passes", 1, True), ("2-passes", 2, True), ("3-passes", 3, True)]
    assert records[-1] == {"command": "verify-all", "pass": True}


def test_unknown_preset_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "--preset", "nope", "normalize", "z")
    assert code == 2 and "unknown preset" in err


def test_parse_error_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "normalize", "x^-1")
    assert code == 2 and "exponent" in err


def test_nesting_up_to_the_limit_normalizes(capsys):
    nested = "(" * MAX_NESTING + "y*x" + ")" * MAX_NESTING
    code, records, _ = run_cli(capsys, "--preset", "sphere", "normalize", nested)
    assert code == 0 and records[0]["result"] == "(z - z^2)"


def usage_error(capsys, *args) -> str:
    code, records, err = run_cli(capsys, *args)
    assert code == 2 and records == []
    return json.loads(err)["error"]


@pytest.mark.parametrize("args", [
    ("--preset", "lens(2,1,1/0)", "chern", "--n", "1"),
    ("rep-check", "--zeta", "1/0"),
])
def test_zero_denominator_is_usage_error(capsys, args):
    assert "zero denominator" in usage_error(capsys, *args)


@pytest.mark.parametrize("command", [("chern", "--n", "1"), ("trace-check",)])
def test_empty_zeta_is_usage_error(capsys, command):
    usage_error(capsys, "--preset", "kleinian-demo", *command, "--zeta", "")


@pytest.mark.parametrize("option", ["--quotient", "--veronese"])
def test_grading_check_zero_modulus_is_usage_error(capsys, option):
    assert "k must be >= 1" in usage_error(
        capsys, "--preset", "lens(2,1,2)", "grading-check", "--degree", "1", option, "0")


@pytest.mark.parametrize("bound,pairs", [("-1", "0"), ("1", "-1")])
def test_trace_check_negative_sizes_is_usage_error(capsys, bound, pairs):
    assert ">= 0" in usage_error(capsys, "trace-check", "--bound", bound, "--pairs", pairs)


@pytest.mark.parametrize("bound,pairs", [
    (str(MAX_TRACE_BOUND + 1), "1"), (str(10**9), "1"),
    ("1", str(MAX_TRACE_PAIRS + 1)), ("1", str(10**9)),
])
def test_trace_check_huge_sizes_is_usage_error(capsys, bound, pairs):
    error = usage_error(capsys, "trace-check", "--bound", bound, "--pairs", pairs)
    assert f"bound must be <= {MAX_TRACE_BOUND} and pairs <= {MAX_TRACE_PAIRS}" in error


def test_trace_check_at_the_ceilings(capsys):
    code, records, _ = run_cli(capsys, "--preset", "sphere", "trace-check",
                               "--bound", str(MAX_TRACE_BOUND), "--pairs", str(MAX_TRACE_PAIRS))
    assert code == 0 and records[-1]["pass"]
    assert records[-1]["params"]["bound"] == MAX_TRACE_BOUND


@pytest.mark.parametrize("bound", [str(MAX_SIZE_BOUND + 1), str(10**9)])
@pytest.mark.parametrize("view", [(), ("--quotient", "2"), ("--veronese", "2")])
def test_grading_check_huge_bound_is_usage_error(capsys, bound, view):
    error = usage_error(capsys, "--preset", "lens(2,1,2)", "grading-check",
                        "--degree", "1", "--bound", bound, *view)
    assert f"size bound must be in [1, {MAX_SIZE_BOUND}]" in error


def test_grading_check_at_the_ceiling(capsys):
    code, records, _ = run_cli(capsys, "--preset", "sphere", "grading-check",
                               "--degree", "1", "--bound", str(MAX_SIZE_BOUND))
    assert code == 0 and records[0]["found"] and records[0]["verified"]


@pytest.mark.parametrize("depth", [MAX_NESTING + 1, 1200])
def test_deep_nesting_is_usage_error(capsys, depth):
    nested = "(" * depth + "z" + ")" * depth
    assert "nested deeper" in usage_error(capsys, "normalize", nested)


@pytest.mark.parametrize("text", [f"z^{MAX_EXPONENT + 1}", "(1+z)^500"])
def test_large_exponent_is_usage_error(capsys, text):
    assert f"exponent larger than {MAX_EXPONENT}" in usage_error(capsys, "normalize", text)


def test_exponent_up_to_the_limit_normalizes(capsys):
    code, records, _ = run_cli(capsys, "normalize", f"z^{MAX_EXPONENT}")
    assert code == 0 and records[0]["result"] == f"(z^{MAX_EXPONENT})"


@pytest.mark.parametrize("text", ["((1+z)^8)^9", "(((1+z)^64)^64)^64"])
def test_nested_exponents_beyond_the_limit_are_usage_errors(capsys, text):
    assert f"larger than {MAX_EXPONENT}" in usage_error(capsys, "normalize", text)


@pytest.mark.parametrize("text,result", [
    ("((1+z)^8)^8", "(1 + 64*z + 2016*z^2"),
    ("(x^2*y)^3", "x^3*(z^3 - 21/4*z^4 + 21/4*z^5 - z^6)"),
])
def test_nested_exponents_up_to_the_limit_normalize(capsys, text, result):
    code, records, _ = run_cli(capsys, "--preset", "sphere", "normalize", text)
    assert code == 0 and records[0]["result"].startswith(result)


def test_scalar_power_beyond_the_bit_bound_is_usage_error(capsys):
    assert "more than 8192 (at position 12)" in usage_error(capsys, "normalize", "((2^64)^64)^64")


def test_scalar_power_within_the_bit_bound_normalizes(capsys):
    code, records, _ = run_cli(capsys, "normalize", "(2^64)^64")
    assert code == 0 and records[0]["result"] == f"({2 ** 4096})"


def unbounded_str(n: int) -> str:
    """``str(n)`` past Python's default cap on int-to-str conversion."""
    set_digits = getattr(sys, "set_int_max_str_digits", None)
    if set_digits is None:
        return str(n)
    digits = sys.get_int_max_str_digits()
    set_digits(0)
    try:
        return str(n)
    finally:
        set_digits(digits)


@pytest.mark.parametrize("text,result", [
    ("(2^64)^64*(2^64)^64*(2^64)^64*(2^64)^64", f"({unbounded_str(2 ** 16384)})"),
    ("((2^64)^64*x)^64", f"x^64*({unbounded_str(2 ** 262144)})"),
])
def test_results_longer_than_the_str_cap_print(capsys, text, result):
    assert len(result) > 4300
    code, records, _ = run_cli(capsys, "--preset", "sphere", "normalize", text)
    assert code == 0 and records[0]["result"] == result


@pytest.mark.parametrize("args", [("normalize", "(2^64)^64*(2^64)^64*(2^64)^64*(2^64)^64"),
                                  ("normalize", "x^-1"), ("--preset", "nope", "normalize", "z")])
def test_str_cap_is_restored_after_main(capsys, args):
    if not hasattr(sys, "get_int_max_str_digits"):
        pytest.skip("this Python has no cap on int-to-str conversion")
    digits = sys.get_int_max_str_digits()
    main(list(args))
    capsys.readouterr()
    assert sys.get_int_max_str_digits() == digits


def test_main_runs_where_python_has_no_str_cap(capsys, monkeypatch):
    """Before Python 3.10.7, ``sys`` has no ``set_int_max_str_digits``."""
    monkeypatch.delattr(sys, "set_int_max_str_digits", raising=False)
    code, records, _ = run_cli(capsys, "chern", "--n", "1")
    assert code == 0 and [r["pass"] for r in records] == [True]


def test_config_value_longer_than_the_str_cap_is_usage_error(capsys, tmp_path):
    if not hasattr(sys, "get_int_max_str_digits"):
        pytest.skip("this Python has no cap on int-to-str conversion")
    path = write_config(tmp_path, {**SPHERE_CONFIG, "q_plus": "1" + "0" * 5000})
    assert "Exceeds the limit" in usage_error(capsys, "--config", path, "normalize", "z")


def degree_source(tmp_path, source):
    kind, value = source
    if kind == "--preset":
        return [kind, value]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"p": value, "q_plus": "2", "q_minus": "3"}))
    return ["--config", str(path)]


@pytest.mark.parametrize("source,degree", [
    (("--config", {"roots": [[0, 1], ["1/3", 1000000]]}), 1000001),
    (("--preset", "lens(1,5000,2)"), 5001),
    (("--config", {"coeffs": [0] * MAX_EXPONENT + [0, 1]}), MAX_EXPONENT + 1),
])
def test_degree_of_p_above_the_limit_is_usage_error(capsys, tmp_path, source, degree):
    message = usage_error(capsys, *degree_source(tmp_path, source), "normalize", "z")
    assert message == f"p has degree {degree}, larger than {MAX_EXPONENT}"


@pytest.mark.parametrize("source", [
    ("--config", {"roots": [[0, 1], ["1/3", MAX_EXPONENT - 1]]}),
    ("--preset", f"lens(1,{MAX_EXPONENT - 1},2)"),
])
def test_degree_of_p_up_to_the_limit_works(capsys, tmp_path, source):
    code, records, _ = run_cli(capsys, *degree_source(tmp_path, source), "normalize", "z")
    assert code == 0 and records[0]["result"] == "(z)"


def test_empty_config_path_is_usage_error(capsys):
    usage_error(capsys, "--config", "", "normalize", "x*y")


@pytest.mark.parametrize("source", [("--preset", "kleinian-demo"), ("--preset", "nope"),
                                    ("--config", "cfg.json")])
def test_verify_all_rejects_preset_and_config(capsys, source):
    message = usage_error(capsys, *source, "verify-all")
    assert "takes no --preset or --config" in message
    assert all(name in message for name in PRESETS)


def write_config(tmp_path, data) -> str:
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(data))
    return str(path)


SPHERE_CONFIG = {"p": {"roots": [["0", 1], ["1", 1]]}, "q_plus": "2", "q_minus": "2"}


@pytest.mark.parametrize("data,message", [
    ([SPHERE_CONFIG], "JSON object"),
    ({**SPHERE_CONFIG, "p": {"coeffs": [0, 1.5]}}, "not an exact rational"),
    ({"p": SPHERE_CONFIG["p"], "q_minus": "2"}, "missing q_plus"),
    ({"p": SPHERE_CONFIG["p"], "q_plus": "2"}, "missing q_minus"),
])
def test_malformed_config_is_usage_error(capsys, tmp_path, data, message):
    path = write_config(tmp_path, data)
    assert message in usage_error(capsys, "--config", path, "normalize", "z")


@pytest.mark.parametrize("args", [("normalize", "1/0"), ("normalize", "0/0"),
                                  ("mul", "x", "1/0")])
def test_zero_denominator_in_an_expression_is_usage_error(capsys, args):
    assert "zero denominator in" in usage_error(capsys, *args)


@pytest.mark.parametrize("data,message", [
    ({**SPHERE_CONFIG, "p": {"coeffs": "0110"}}, '"coeffs" must be a JSON array'),
    ({**SPHERE_CONFIG, "p": {"coeffs": {"1": "1"}}}, '"coeffs" must be a JSON array'),
    ({**SPHERE_CONFIG, "zetas": "12"}, '"zetas" must be a JSON array'),
    ({**SPHERE_CONFIG, "p": {"roots": "0111"}}, '"roots" must be a JSON array'),
    ({**SPHERE_CONFIG, "p": {"roots": ["01", "11"]}}, "[root, multiplicity] arrays"),
    ({**SPHERE_CONFIG, "p": {"roots": [["0", 1, 1]]}}, "[root, multiplicity] arrays"),
    ({**SPHERE_CONFIG, "p": {"roots": [["0", True], ["1", 1]]}}, "not an integer: True"),
    ({**SPHERE_CONFIG, "p": {"roots": [["0", 1.5], ["1", 1]]}}, "not an integer: 1.5"),
    ({**SPHERE_CONFIG, "q_plus": True}, "not an exact rational: True"),
    ({**SPHERE_CONFIG, "r": False}, "not an exact rational: False"),
    ({**SPHERE_CONFIG, "p": {"coeffs": [0, True, -1]}}, "not an exact rational: True"),
    ({**SPHERE_CONFIG, "zeta": ["1"]}, "not an exact rational: ['1']"),
])
def test_config_value_of_the_wrong_json_type_is_usage_error(capsys, tmp_path, data, message):
    path = write_config(tmp_path, data)
    assert message in usage_error(capsys, "--config", path, "normalize", "z")


def test_config_integers_are_read_as_numbers():
    data = {"name": "sphere", "p": {"roots": [[0, 1], [1, "1"]]},
            "q_plus": 2, "q_minus": "2", "zetas": [1]}
    assert config_from_dict(data) == preset("sphere")


def test_rep_check_needs_a_root(capsys):
    # sphere: p(3) = 3 - 9 = -6, seen only on column 0, outside the interior residuals
    assert "zeta = 3 is not a root of p: p(zeta) = -6" in usage_error(
        capsys, "--preset", "sphere", "rep-check", "--zeta", "3")


def test_trace_check_refuses_the_zero_root(capsys):
    assert "zero map" in usage_error(capsys, "--preset", "sphere", "trace-check", "--zeta", "0")


def test_trace_check_defaults_to_the_nonzero_roots(capsys, tmp_path):
    path = write_config(tmp_path, {**SPHERE_CONFIG, "zetas": ["0", "1"]})
    code, records, _ = run_cli(capsys, "--config", path, "trace-check",
                               "--bound", "1", "--pairs", "2")
    assert code == 0 and [r["params"]["zeta"] for r in records] == ["1"]
    path = write_config(tmp_path, {**SPHERE_CONFIG, "zetas": ["0"]})
    assert "no nonzero root" in usage_error(capsys, "--config", path, "trace-check")


@pytest.mark.parametrize("dim", ["1", "2"])
def test_rep_check_small_dim_is_usage_error(capsys, dim):
    message = usage_error(capsys, "--preset", "sphere", "rep-check", "--zeta", "1", "--dim", dim)
    assert f"dimension must be >= 3 so the truncation has an interior index, got {dim}" in message


@pytest.mark.parametrize("dim", [str(numrep.MAX_DIM + 1), "100000000", str(10**30)])
def test_rep_check_huge_dim_is_usage_error(capsys, tmp_path, dim):
    out = tmp_path / "m"
    assert f"dimension must be <= {numrep.MAX_DIM}, got {dim}:" in usage_error(
        capsys, "--preset", "sphere", "rep-check", "--zeta", "1", "--dim", dim,
        "--dump-csv", str(out))
    assert not out.exists()


def test_rep_check_at_max_dim(capsys):
    code, records, _ = run_cli(capsys, "--preset", "sphere", "rep-check", "--zeta", "1",
                               "--dim", str(numrep.MAX_DIM))
    assert code == 0
    assert records[-1]["params"]["dim"] == numrep.MAX_DIM
    assert records[-1]["interior_indices"] == [1, numrep.MAX_DIM - 2]


def test_rep_check_unwritable_csv_dir_is_usage_error(capsys, tmp_path):
    blocker = tmp_path / "taken"
    blocker.write_text("")
    usage_error(capsys, "--preset", "sphere", "rep-check", "--zeta", "1", "--dim", "4",
                "--dump-csv", str(blocker))


def test_rep_check_dump_csv(capsys, tmp_path):
    code, records, _ = run_cli(capsys, "--preset", "sphere", "rep-check", "--zeta", "1",
                               "--dim", "4", "--dump-csv", str(tmp_path / "m"))
    assert code == 0
    assert [r.get("check", r.get("command")) for r in records] == [
        "one-dim-rep", "one-dim-rep", "rep-check", "truncated-rep"]
    assert sorted(p.name for p in (tmp_path / "m").iterdir()) == ["x.csv", "y.csv", "z.csv"]


def test_rep_check_nonzero_r_is_usage_error(capsys, tmp_path):
    path = write_config(tmp_path, {**SPHERE_CONFIG, "r": "1/2"})
    assert "r = 0" in usage_error(capsys, "--config", path, "rep-check", "--zeta", "1")


def test_rep_check_negative_q_is_reported_as_given(capsys, tmp_path):
    # only a q above 1 is inverted; q = -2 * 2 stays -4
    path = write_config(tmp_path, {**SPHERE_CONFIG, "q_plus": "-2"})
    message = usage_error(capsys, "--config", path, "rep-check", "--zeta", "1")
    assert message == "truncated representation needs q in (0, 1), got -4"


def test_internal_error_is_distinct(capsys, monkeypatch):
    def broken(cfg, args, out):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "_cmd_normalize", broken)
    code, records, err = run_cli(capsys, "normalize", "z")
    assert code == 3 and records == []
    assert "Traceback" in err
    assert json.loads(err.splitlines()[-1]) == {"error": "RuntimeError: boom", "kind": "internal"}


def test_wrong_pairing_fails(capsys, monkeypatch):
    monkeypatch.setattr(cli, "chern_pairings", lambda amb, zetas, n: [frac(0)] * len(zetas))
    code, records, _ = run_cli(capsys, "--preset", "sphere", "chern", "--n", "1")
    assert code == 1
    assert records == [{"check": "chern", "params": {"n": 1, "zeta": "1"},
                        "expected": "-1", "got": "0", "pass": False}]


def test_verify_all_streams_and_fails(capsys, monkeypatch):
    passing = {"check": "fake", "params": {}, "expected": "1", "got": "1", "pass": True}
    failing = {**passing, "got": "0", "pass": False}
    monkeypatch.setattr(acceptance, "CRITERIA", (
        ("a-passes", "one passing check", lambda: [passing]),
        ("b-empty", "no checks", lambda: []),
        ("c-fails", "one failing check", lambda: [passing, failing]),
    ))
    code, records, _ = run_cli(capsys, "verify-all")
    assert code == 1
    assert [(r["criterion"], r["checks"], r["pass"]) for r in records[:-1]] == [
        ("a-passes", 1, True), ("b-empty", 0, False), ("c-fails", 2, False)]
    assert records[2]["failures"] == [failing]
    assert records[-1] == {"command": "verify-all", "pass": False}
