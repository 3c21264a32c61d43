import contextlib
import hashlib
import io
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import jetcalc.analysis as analysis
import jetcalc.series as series
from jetcalc.calculus import total_t
import jetcalc.cli as cli
from jetcalc.cli import COMMANDS, build_parser, main, parse_f_spec
from jetcalc.dsl import parse_series, print_series
from jetcalc.errors import JetCalcError
from jetcalc.expr import FunctionSpec
from jetcalc.poly import MAX_EXPONENT

ROOT = Path(__file__).parent.parent
DATA = Path(__file__).parent / "data"
ABSTRACT = str(DATA / "gke_abstract.json")
LINEAR = str(DATA / "gke_linear.json")
QUADRATIC = str(DATA / "gke_quadratic.json")
LOG = str(DATA / "gke_log.json")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_euler_command(capsys):
    code, out, _ = run(capsys, "euler", "u_x^2/2")
    assert code == 0
    assert "result: -u_xx" in out


def test_dx_command(capsys):
    code, out, _ = run(capsys, "dx", "x*u")
    assert code == 0
    assert "result: x*u_x + u" in out


def test_dt_requires_eq(capsys):
    code, out, err = run(capsys, "dt", "u")
    assert code == 2


def test_dt_command(capsys):
    code, out, _ = run(capsys, "dt", "u", "--eq", ABSTRACT)
    assert code == 0
    assert "result: u_5x + b*u_xxx + f(u)*u_x" in out


def test_order_command(capsys):
    code, out, _ = run(capsys, "order", "x*t")
    assert code == 0
    assert "order: -oo" in out


def test_compose_command(capsys):
    code, out, _ = run(capsys, "compose", "xi", "u", "--prec", "4")
    assert code == 0
    assert "result: (u)*xi + u_x" in out


def test_an_exactly_zero_commutator_is_reported_exact(capsys):
    # every product below the window has k = 0 and cancels, so no O(xi^k)
    # is printed at a precision that cuts the series
    code, out, _ = run(capsys, "commutator", "xi^2 + u*xi^(-5)", "b", "--prec", "3")
    assert code == 0
    assert "result: 0" in out.splitlines()


def test_root_command(capsys):
    code, out, _ = run(capsys, "root", "xi^5 + b*xi^3 + f(u)*xi + f'(u)*u_x",
                       "--n", "5", "--prec", "6")
    assert code == 0
    assert "xi + (1/5*b)*xi^(-1)" in out


def test_symmetry_command_exit_codes(capsys):
    code, out, _ = run(capsys, "symmetry", "u_x", "--eq", ABSTRACT)
    assert code == 0
    assert "residual: 0" in out
    code, out, _ = run(capsys, "symmetry", "u", "--eq", ABSTRACT)
    assert code == 1
    assert "not a symmetry" in out


def test_density_command(capsys):
    code, out, _ = run(capsys, "density", "u^2", "--eq", ABSTRACT, "--flux")
    assert code == 0
    assert "verdict: conserved density" in out
    assert "conservation residual: 0" in out
    code, out, _ = run(capsys, "density", "u^3", "--eq", ABSTRACT)
    assert code == 1


def test_density_takes_one_time_derivative(capsys, monkeypatch):
    # the verdict, the flux and the conservation residual all come from one D_t(rho)
    calls = []

    def counting(e, eq):
        calls.append(e)
        return total_t(e, eq)

    monkeypatch.setattr(analysis, "total_t", counting)
    code, out, _ = run(capsys, "density", "u", "--eq", LOG, "--flux")
    assert code == 0 and "conservation residual: 0\n" in out
    assert len(calls) == 1


def test_trivial_command(capsys):
    assert run(capsys, "trivial", "u_x")[0] == 0
    assert run(capsys, "trivial", "u")[0] == 1


@pytest.mark.parametrize("rho", ["f(u)^2*u_x", "u_x/(u^2+1)"])
def test_trivial_density_outside_the_integrators_class(capsys, rho):
    code, out, _ = run(capsys, "trivial", rho)
    assert code == 0
    assert "verdict: trivial density (a total x-derivative)" in out


def test_density_with_flux_outside_the_integrators_class(capsys, tmp_path):
    path = tmp_path / "eq.json"
    path.write_text('{"rhs": "u_xxx + u_x/(1+u^2)"}')
    code, out, err = run(capsys, "density", "u", "--eq", str(path), "--flux")
    assert (code, err) == (0, "")
    assert "flux: not reconstructed (outside the integrator's class)\n" in out
    assert "verdict: conserved density" in out
    code, out, _ = run(capsys, "--json", "density", "u", "--eq", str(path), "--flux")
    doc = json.loads(out)
    assert (code, doc["verdict"], doc["flux_reconstructed"]) == (0, "conserved density", False)
    code, out, _ = run(capsys, "density", "u^3", "--eq", str(path))
    assert code == 1


def test_density_flux_with_a_denominator_other_than_u_plus_c(capsys, tmp_path):
    # the flux u_xx - 1/(c^2*u^2 + 1) has a denominator that is not a power
    # of u+c, so it is outside the integrator's class; this used to run for
    # more than a minute
    path = tmp_path / "eq.json"
    path.write_text('{"rhs": "u_xxx + 2*c^2*u*u_x/(c^2*u^2+1)^2", "params": ["c"]}')
    code, out, err = run(capsys, "density", "u", "--eq", str(path), "--flux")
    assert (code, err) == (0, "")
    assert "flux: not reconstructed (outside the integrator's class)\n" in out


def test_density_flux_of_a_t_only_remainder(capsys, tmp_path):
    # D_t(u) = D_x(u_xx) + t: the t-only part integrates to x*t
    path = tmp_path / "eq.json"
    path.write_text('{"rhs": "u_xxx + t"}')
    code, out, err = run(capsys, "density", "u", "--eq", str(path), "--flux")
    assert (code, err) == (0, "")
    assert "flux: u_xx + x*t\n" in out
    assert "conservation residual: 0\n" in out


def test_lemma1_command(capsys):
    code, out, _ = run(capsys, "lemma1", "(u_xx^2 - b*u_x^2)/2 + rhat(u)",
                       "--eq", ABSTRACT)
    assert code == 0
    assert "characteristic: u_5x + b*u_xxx + f(u)*u_x" in out


def test_scan_command(capsys):
    code, out, _ = run(capsys, "scan", "--eq", QUADRATIC, "--rank", "13")
    assert code == 1  # obstruction found
    assert "ObstructionFound(xi^-7: g = 0)" in out
    assert "g is constant" in out
    assert "l0 is constant" in out


def test_scan_refusals_exit_2_in_dsl_spelling(capsys, tmp_path):
    # 1/(1+u^2) lies outside the integrator's (u+c)^k class
    outside = tmp_path / "outside.json"
    outside.write_text(json.dumps({"rhs": "u_xxx + u_x/(1+u^2)"}))
    code, out, err = run(capsys, "scan", "--eq", str(outside), "--rank", "13")
    assert (code, out) == (2, "")
    assert "u_x" in err and "dg/dt" in err and "u_1x" not in err
    # a constraint that holds t is not one the scan can resolve
    explicit_t = tmp_path / "explicit_t.json"
    explicit_t.write_text(json.dumps({"rhs": "u_xxx + t*u*u_x"}))
    code, out, err = run(capsys, "scan", "--eq", str(explicit_t), "--rank", "13")
    assert (code, out, err) == (
        2, "", "error: constraint coefficient 1/9*g + 1/9*t*dg/dt depends on t\n")


def test_scan_below_rank_13_is_refused(capsys):
    code, out, err = run(capsys, "scan", "--eq", str(DATA / "kdv.json"), "--rank", "12")
    assert (code, out, err) == (2, "", "error: scan supports target ranks >= 13\n")


def test_kawahara_verify_says_when_a_flux_is_not_reconstructed(capsys, monkeypatch):
    # with the integrator refusing every input the Euler test still finds each
    # density conserved, and the report says that its flux was not built
    monkeypatch.setattr(analysis, "formal_x_integrate", lambda F, shifted=False: (0 * F, F))
    code, out, _ = run(capsys, "kawahara", "verify", "--theorem", "2", "--f", "abstract")
    assert code == 0
    assert f"  {cli.FLUX_NOT_RECONSTRUCTED}\n" in out
    assert "FAILED" not in out and "flux (reconstructed)" not in out


def test_kawahara_verify_exit_zero_on_obstruction(capsys):
    code, out, _ = run(capsys, "kawahara", "verify", "--theorem", "3",
                       "--f", "quadratic")
    assert code == 0
    assert "verdict: theorem 3 verified" in out
    assert "g = 0 contradicts deg L = 1" in out


def test_readme_command_lines_run(capsys, monkeypatch):
    # every command line the README shows runs from the repository root; a
    # "# -> value" comment states the result line of its report
    monkeypatch.chdir(ROOT)
    lines = [ln for ln in (ROOT / "README.md").read_text().splitlines()
             if ln.startswith("jetcalc ")]
    stated = 0
    for line in lines:
        command, _, comment = line.partition(" #")
        argv = shlex.split(command)[1:]
        code, out, err = run(capsys, *argv)
        assert code in (0, 1), (line, err)
        if comment.startswith(" -> "):
            assert f": {comment[4:]}\n" in out, line
            stated += 1
    assert stated == 2


def test_readme_library_example_states_its_values():
    # the README's Python block runs as shown, and the comment on each bare
    # expression is the repr of its value, optionally followed by ": why"
    block = (ROOT / "README.md").read_text().split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    stated = 0
    for line in block.splitlines():
        code, _, comment = line.partition("#")
        try:
            expression = compile(code, "README.md", "eval")
        except SyntaxError:
            exec(code, namespace)
            continue
        shown = repr(eval(expression, namespace))
        comment = comment.strip()
        assert comment == shown or comment.startswith(shown + ": "), (line, shown)
        stated += 1
    assert stated == 5


def test_parse_error_exit_code(capsys):
    code, out, err = run(capsys, "euler", "u_x + ")
    assert code == 2
    assert "column 7" in err or "line 1" in err


def test_json_output(capsys):
    code, out, _ = run(capsys, "--json", "density", "u^2", "--eq", ABSTRACT,
                       "--flux")
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "conserved density"
    assert "flux" in doc
    assert "residual" in doc
    assert doc["command"].startswith("jetcalc")
    assert any(k.startswith("eq-file") for k in doc["inputs"])


def test_json_scan_steps(capsys):
    code, out, _ = run(capsys, "--json", "scan", "--eq", QUADRATIC,
                       "--rank", "13")
    doc = json.loads(out)
    assert doc["verdict"].startswith("ObstructionFound")
    steps = doc["steps"]
    assert steps[0]["xi_index"] == 5
    assert steps[-1]["xi_index"] == -7
    assert any("g = 0" in f for s in steps for f in s["forced"])


def test_determinism(capsys):
    a = run(capsys, "kawahara", "verify", "--theorem", "1", "--f", "linear:alpha,beta")
    b = run(capsys, "kawahara", "verify", "--theorem", "1", "--f", "linear:alpha,beta")
    assert a == b


def test_precision_env(capsys, monkeypatch):
    monkeypatch.setenv("JETCALC_PRECISION", "3")
    code, out, _ = run(capsys, "compose", "xi^(-1)", "u")
    assert code == 0
    assert "O(xi^-4)" in out


@pytest.mark.parametrize("argv", [
    ["root", "xi^5", "--n", "0"],
    ["root", "xi^5", "--n", "-2"],
    ["compose", "xi", "u", "--prec", "0"],
    ["compose", "xi", "u", "--prec", "-3"],
    ["adjoint", "u*xi", "--prec", "0"],
])
def test_nonpositive_counts_are_usage_errors(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("usage error: argument --") and "positive" in err


def test_a_usage_error_leaves_the_parser_usable(capsys):
    # one parser per command name (and the full one) serves every command of
    # a process, so a failed parse must not change what the next command
    # parses to
    assert build_parser() is build_parser()
    for name in ("dx", "kawahara", "root"):
        assert build_parser(name) is build_parser(name) is not build_parser()
    for argv in (["dx"], ["kawahara", "verify", "--theorem", "4"], ["root", "xi^5", "--n", "0"],
                 ["--json", "dx"], ["nosuch"]):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and err.startswith("usage error: "), argv
    code, out, _ = run(capsys, "dx", "x*u")
    assert code == 0
    assert "result: x*u_x + u" in out
    code, out, _ = run(capsys, "root", "xi^2", "--n", "2")
    assert code == 0
    assert "result: xi" in out
    code, out, _ = run(capsys, "kawahara", "verify", "--theorem", "1", "--f", "quadratic")
    assert code == 0
    assert "verdict: theorem 1 verified" in out


def _parsed(parse, argv):
    """(exit, stdout, stderr) of parsing argv alone, as main reports it."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            parse(argv)
            code = 0
        except SystemExit as exc:  # --help
            code = exc.code
        except cli._UsageError as exc:
            stderr.write(f"usage error: {exc}\n")
            code = 2
    return code, stdout.getvalue(), stderr.getvalue()


def _through_main(argv):
    # the handler never runs: every argv here is --help or a usage error
    return _parsed(lambda a: sys.exit(main(a)), argv)


COMMAND_WORDS = [[name] for name, *_ in COMMANDS] + [["kawahara"], ["kawahara", "verify"]]
# each command alone lacks a required operand or option
PARSER_CASES = ([words + ["--help"] for words in COMMAND_WORDS] + COMMAND_WORDS
                + [[], ["-h"], ["nosuch"], ["--json"], ["--json", "root", "--help"],
                   ["--json", "kawahara", "verify"], ["--js", "dx", "--help"], ["--js", "dx"],
                   ["dx", "u", "--json"], ["kawahara", "nosuch"], ["root", "xi", "--n", "2", "--q"]])


@pytest.mark.parametrize("argv", PARSER_CASES, ids=" ".join)
def test_a_command_parses_as_with_the_full_parser(argv):
    # main parses a command named first with a parser of that command alone:
    # its help (exit 0) and its usage errors (exit 2) are the full parser's
    want = _parsed(build_parser().parse_args, argv)
    assert want[0] in (0, 2) and (want[0] == 0) == any(a in ("-h", "--help") for a in argv)
    assert _through_main(argv) == want


def test_a_one_command_parser_with_another_prog_is_caught(monkeypatch):
    # the mutant: one-command parsers whose prog is not "jetcalc"
    class Renamed(cli._ArgumentParser):
        def __init__(self, **kwargs):
            super().__init__(**dict(kwargs, prog="jetcalc.py"))

    full = build_parser()
    mutant = build_parser.__wrapped__
    monkeypatch.setattr(cli, "_ArgumentParser", Renamed)
    monkeypatch.setattr(cli, "build_parser", lambda name=None: mutant(name) if name else full)
    wrong = [argv for argv in PARSER_CASES
             if _through_main(argv) != _parsed(full.parse_args, argv)]
    assert ["dx", "--help"] in wrong and ["kawahara", "verify", "--help"] in wrong


def test_json_before_the_command_and_its_abbreviation(capsys):
    code, out, _ = run(capsys, "--json", "dx", "x*u")
    assert code == 0 and json.loads(out)["result"] == "x*u_x + u"
    # argparse takes --js for --json; it is not a command name, so the full
    # parser reads it
    assert run(capsys, "--js", "dx", "x*u") == (code, out.replace("--json", "--js"), "")


def test_text_reports_print_only_what_they_show(capsys, monkeypatch):
    # each step's solved coefficient is a JSON field only: text mode does not
    # print it
    original, printed = cli.print_expr, []

    def recording(e):
        printed.append(original(e))
        return printed[-1]

    monkeypatch.setattr(cli, "print_expr", recording)
    argv = ["kawahara", "verify", "--theorem", "3", "--f", "quadratic"]
    code, out, _ = run(capsys, *argv)
    assert code == 0 and printed and all(text in out for text in printed)
    text_calls = len(printed)
    code, doc, _ = run(capsys, "--json", *argv)
    steps = json.loads(doc)["steps"]
    assert text_calls == sum(len(s["constraints"]) for s in steps)
    assert len(printed) == 2 * text_calls + sum(s["solved"] != "" for s in steps)


@pytest.mark.parametrize("content, message", [
    ("[1, 2]", 'a JSON object with a string "rhs"'),
    ('{"rhs": 5}', 'a JSON object with a string "rhs"'),
    ('{"f": "abstract"}', 'a JSON object with a string "rhs"'),
    ('{"rhs": "u_5x + f(u)*u_x", "f": ["abstract"]}', '"f" must be a string'),
    (b"\xc3\x28", "can't decode"),
    ('{"rhs": "u_xxx + 6*u*u_x", "precision": -3, "params": ["zzz"]}', '"precision"'),
    ('{"rhs": "u_xxx + 6*u*u_x", "precision": 0}', '"precision" must be a positive integer'),
    ('{"rhs": "u_xxx + 6*u*u_x", "precision": "20"}', '"precision" must be a positive integer'),
    ('{"rhs": "u_xxx + 6*u*u_x", "precision": true}', '"precision" must be a positive integer'),
    ('{"rhs": "u_xxx + 6*u*u_x", "params": ["zzz"]}', '"params" ["zzz"] differs'),
    ('{"rhs": "u_xxx + b*u*u_x", "params": "b"}', '"params" must be a list of strings'),
    ('{"rhs": "u_xxx + b*u*u_x", "params": ["b", "b"]}', '"params" ["b", "b"] differs'),
    # ln(u+c) carries the parameter c
    ('{"rhs": "u_5x + f(u)*u_x", "params": ["gamma", "delta"], "f": "log:gamma,delta,c"}',
     'differs from the parameters of "rhs": ["c", "delta", "gamma"]'),
], ids=["list", "rhs-not-a-string", "no-rhs", "f-not-a-string", "not-utf8",
        "precision-negative", "precision-zero", "precision-string", "precision-bool",
        "params-unused", "params-not-a-list", "params-repeated", "params-missing-c"])
def test_malformed_equation_file_is_an_input_error(capsys, tmp_path, content, message):
    path = tmp_path / "eq.json"
    if isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(content)
    code, out, err = run(capsys, "dt", "u", "--eq", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and message in err


def test_deep_nesting_is_a_syntax_error(capsys):
    code, out, err = run(capsys, "dx", "(" * 3000 + "u" + ")" * 3000)
    assert code == 2
    assert out == ""
    assert err.startswith("syntax error: nesting deeper than")
    assert "(line 1, column " in err


def test_exponent_overflow_is_an_input_error(capsys):
    code, out, _ = run(capsys, "dx", f"u^{MAX_EXPONENT}")
    assert code == 0
    assert f"result: {MAX_EXPONENT}*u^{MAX_EXPONENT - 1}*u_x\n" in out
    code, out, err = run(capsys, "dx", f"u^{MAX_EXPONENT + 1}")
    assert code == 2
    assert out == ""
    assert err == f"error: exponent overflow: the exponent of u exceeds {MAX_EXPONENT}\n"
    # the generator is named as the input spells it
    code, out, err = run(capsys, "dx", f"u_x^{MAX_EXPONENT + 1}")
    assert (code, out) == (2, "")
    assert err == f"error: exponent overflow: the exponent of u_x exceeds {MAX_EXPONENT}\n"
    # xi is one generator of a series literal, with the same bound
    code, out, err = run(capsys, "compose", f"xi^{MAX_EXPONENT + 1}", "u")
    assert (code, out) == (2, "")
    assert err == f"error: exponent overflow: the exponent of xi exceeds {MAX_EXPONENT}\n"


@pytest.mark.parametrize("value", ["abc", "0", "-4", "2.5"])
def test_invalid_precision_env_is_an_input_error(capsys, monkeypatch, value):
    monkeypatch.setenv("JETCALC_PRECISION", value)
    code, out, err = run(capsys, "compose", "xi^(-1)", "u")
    assert code == 2
    assert out == ""
    assert err == f"error: JETCALC_PRECISION must be a positive integer, got {value!r}\n"


def test_a_window_past_the_maximum_is_a_usage_error(capsys, monkeypatch):
    # refused before any series is built: root "xi^5+u" takes about 3 s at
    # the maximum window and minutes a few dozen slots beyond it
    def refuse():
        raise AssertionError("a refused window started a run")

    monkeypatch.setattr(series, "dx_towers", refuse)
    too_many = str(series.MAX_SLOTS + 1)
    code, out, err = run(capsys, "root", "xi^5+u", "--n", "5", "--prec", too_many)
    assert (code, out) == (2, "")
    assert err == (f"usage error: argument --prec: {too_many} slots exceed "
                   f"the maximum window of {series.MAX_SLOTS}\n")
    monkeypatch.setenv("JETCALC_PRECISION", too_many)
    code, out, err = run(capsys, "root", "xi^5+u", "--n", "5")
    assert (code, out) == (2, "")
    assert err == f"error: JETCALC_PRECISION must be at most {series.MAX_SLOTS}, got {too_many!r}\n"
    # the maximum itself is a window like any other
    monkeypatch.undo()
    monkeypatch.setenv("JETCALC_PRECISION", str(series.MAX_SLOTS))
    for prec in ([], ["--prec", str(series.MAX_SLOTS)]):
        code, out, _ = run(capsys, "compose", "xi^(-1)", "u", *prec)
        assert code == 0 and f"O(xi^-{series.MAX_SLOTS + 1})" in out


def test_an_unexpected_exception_is_an_internal_error(capsys, monkeypatch):
    # exit 1 is a nonzero residual, so a crash must not end there with a traceback
    def crash(theorem, fspec):
        raise RuntimeError("boom")

    monkeypatch.setattr("jetcalc.cli.verify_theorem", crash)
    code, out, err = run(capsys, "kawahara", "verify", "--theorem", "2", "--f", "abstract")
    assert (code, out, err) == (3, "", "internal error: RuntimeError: boom\n")


def test_parse_f_spec():
    assert parse_f_spec("abstract").mode == "abstract"
    assert parse_f_spec("quadratic") == FunctionSpec.quadratic()
    assert parse_f_spec("linear:alpha,beta") == FunctionSpec.linear()
    assert parse_f_spec("log:gamma,delta,c") == FunctionSpec.log_shift()
    assert parse_f_spec("poly:0,0,0,1") == FunctionSpec.polynomial([0, 0, 0, 1])
    for text, message in [
        ("log:gamma,delta,d", "the logarithm shift must be the symbolic parameter c"),
        ("linear:a", "linear spec needs two entries: linear:alpha,beta"),
        ("log:a,b", "log spec needs three entries: log:gamma,delta,c"),
        ("poly:", "poly spec needs coefficients: poly:c0,c1,..."),
        ("cubic", "unknown f specification 'cubic'"),
    ]:
        with pytest.raises(JetCalcError) as err:
            parse_f_spec(text)
        assert str(err.value) == message


@pytest.mark.parametrize("f", ["poly:0,0,0,1", "linear:2,3", "log:2,3,c"])
@pytest.mark.parametrize("theorem", ["1", "2"])
def test_kawahara_verify_specialized_f(capsys, f, theorem):
    code, out, _ = run(capsys, "kawahara", "verify", "--theorem", theorem, "--f", f)
    assert code == 0
    assert f"verdict: theorem {theorem} verified" in out
    assert "FAILED" not in out


@pytest.mark.parametrize("f", ["poly:1", "linear:0,1", "log:0,1,c"])
@pytest.mark.parametrize("theorem", ["1", "2", "3"])
def test_kawahara_verify_refuses_constant_f(capsys, f, theorem):
    # gamma = 0 makes the log f the constant delta, refused like any constant f
    code, out, err = run(capsys, "kawahara", "verify", "--theorem", theorem, "--f", f)
    assert (code, out, err) == (2, "", "error: f must be nonconstant (df/du != 0)\n")


# -- pinned reports ---------------------------------------------------------------
# One case per subcommand and outcome.  The expected stdout, stderr and exit
# code of each case, in text and in --json, are stored in
# tests/golden/cli_reports.json.  Equation files are passed relative to tests/
# so that the reports do not depend on where the checkout lives.

PIN_CASES = {
    "dx": ["dx", "x*u"],
    "dt": ["dt", "u", "--eq", "data/gke_abstract.json"],
    "euler": ["euler", "u_x^2/2"],
    "frechet": ["frechet", "u_5x + b*u_xxx + f(u)*u_x", "u_x"],
    "order": ["order", "f(u)"],
    "order_neg_inf": ["order", "x*t"],
    "compose": ["compose", "xi^(-1)", "u", "--prec", "6"],
    "adjoint": ["adjoint", "u*xi", "--prec", "6"],
    "commutator": ["commutator", "xi^5", "u*xi", "--prec", "6"],
    # inexact operands: the window ends at the bound that the O(xi^k) sets
    "adjoint_inexact": ["adjoint", "u*xi^2 + b*xi^(-1) + O(xi^(-4))", "--prec", "8"],
    "commutator_inexact": ["commutator", "xi^3 + u*xi^(-1) + O(xi^(-4))", "u*xi^2",
                           "--prec", "8"],
    "root": ["root", "xi^5 + b*xi^3 + f(u)*xi + f'(u)*u_x", "--n", "5", "--prec", "6"],
    "symmetry": ["symmetry", "t*u_x + 1/alpha", "--eq", "data/gke_linear.json"],
    "symmetry_residual": ["symmetry", "u", "--eq", "data/gke_abstract.json"],
    "density_flux": ["density", "u^2", "--eq", "data/gke_abstract.json", "--flux"],
    "density_flux_log": ["density", "u", "--eq", "data/gke_log.json", "--flux"],
    "density_not_conserved": ["density", "u^3", "--eq", "data/gke_abstract.json"],
    "trivial": ["trivial", "u*u_xx + u_x^2"],
    "nontrivial": ["trivial", "u"],
    "lemma1": ["lemma1", "(u_xx^2 - b*u_x^2)/2 + rhat(u)", "--eq", "data/gke_abstract.json"],
    "scan": ["scan", "--eq", "data/gke_quadratic.json", "--rank", "13"],
    "scan_kdv": ["scan", "--eq", "data/kdv.json", "--rank", "13"],
    # the scans with the most forcings; the log file is scanned in u, over
    # (u+c)^k denominators
    "scan_linear_17": ["scan", "--eq", "data/gke_linear.json", "--rank", "17"],
    "scan_log_17": ["scan", "--eq", "data/gke_log.json", "--rank", "17"],
    "kawahara_verify": ["kawahara", "verify", "--theorem", "3", "--f", "quadratic"],
    "kawahara_verify_log": ["kawahara", "verify", "--theorem", "3", "--f", "log:gamma,delta,c"],
    "kawahara_not_verified": ["kawahara", "verify", "--theorem", "3", "--f", "linear:alpha,beta"],
    "usage_error": ["dt", "u"],
    "syntax_error": ["euler", "u_x + "],
    "missing_eq_file": ["dt", "u", "--eq", "data/no_such_file.json"],
    "zero_root": ["root", "0", "--n", "5", "--prec", "4"],
}
PINNED = json.loads((Path(__file__).parent / "golden" / "cli_reports.json").read_text())


@pytest.mark.parametrize("mode", ["text", "json"])
@pytest.mark.parametrize("case", sorted(PIN_CASES))
def test_pinned_report(capsys, monkeypatch, case, mode):
    monkeypatch.chdir(Path(__file__).parent)
    argv = (["--json"] if mode == "json" else []) + PIN_CASES[case]
    code, out, err = run(capsys, *argv)
    assert {"exit": code, "stdout": out, "stderr": err} == PINNED[f"{case}/{mode}"]


# Reports too long to store are pinned by the sha256 of stdout: the README root
# example at the default 20 slots (89 KB), a root with rational multipliers, and
# the root of the log branch's symbol, frechet_hat of K for f = gamma*ln(u+c) +
# delta, whose coefficients carry (u+c)^k denominators, at 12 and 14 slots.
DIGEST_PIN_CASES = {
    "root_readme": ["root", "xi^5 + b*xi^3 + f(u)*xi + f'(u)*u_x", "--n", "5"],
    "root_log": ["root", "xi^5 + (b)*xi^3 + (gamma*ln(u+c) + delta)*xi + ((gamma*u_x)/(u + c))",
                 "--n", "5", "--prec", "12"],
    "root_log_14": ["root", "xi^5 + (b)*xi^3 + (gamma*ln(u+c) + delta)*xi + ((gamma*u_x)/(u + c))",
                    "--n", "5", "--prec", "14"],
    "root_rational": ["root", "xi^5 - 2/3*b*xi^3 + 3/2*f(u)*xi - 1/3*f'(u)*u_x",
                      "--n", "5", "--prec", "16"],
}


@pytest.mark.parametrize("mode", ["text", "json"])
@pytest.mark.parametrize("case", sorted(DIGEST_PIN_CASES))
def test_pinned_report_digest(capsys, monkeypatch, case, mode):
    monkeypatch.delenv("JETCALC_PRECISION", raising=False)
    argv = (["--json"] if mode == "json" else []) + DIGEST_PIN_CASES[case]
    code, out, err = run(capsys, *argv)
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert {"exit": code, "stderr": err, "stdout_sha256": digest} == PINNED[f"{case}/{mode}"]


def _result_line(out: str) -> str:
    (line,) = [ln[len("result: "):] for ln in out.splitlines() if ln.startswith("result: ")]
    return line


@pytest.mark.parametrize("case", ["root_readme", "root_log_14"])
def test_a_pinned_root_parses_back(capsys, monkeypatch, case):
    # the printed window, + O(xi^k), is the floor of the inexact root
    monkeypatch.delenv("JETCALC_PRECISION", raising=False)
    argv = DIGEST_PIN_CASES[case]
    code, out, _ = run(capsys, *argv)
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED[f"{case}/text"]["stdout_sha256"]
    slots = int(argv[argv.index("--prec") + 1]) if "--prec" in argv else series.DEFAULT_SLOTS
    S = series.nth_root(parse_series(argv[1]), int(argv[3]), slots=slots)
    line = _result_line(out)
    assert not S.exact and print_series(S) == line
    assert parse_series(line) == S


def test_compose_and_root_take_a_printed_root(capsys):
    code, out, _ = run(capsys, "root", "xi^2 + u", "--n", "2", "--prec", "6")
    root = _result_line(out)
    assert code == 0 and root.endswith(" + O(xi^-5)")
    for argv in (["compose", root, "1"], ["root", root, "--n", "1"]):
        code, out, err = run(capsys, *argv, "--prec", "6")
        assert (code, err, _result_line(out)) == (0, "", root), argv


# A generator owns the monomial field it was interned into, for the life of the
# process, and which tests ran first decides that inside a pytest session.  So
# each interning order runs in a fresh interpreter that interns a dozen
# unrelated generators, then runs the commands in one order and in the other.
INTERNING_CASES = {
    "root_readme_12": ["root", "xi^5 + b*xi^3 + f(u)*xi + f'(u)*u_x", "--n", "5", "--prec", "12"],
    "root_log": DIGEST_PIN_CASES["root_log"],
    "theorem1_log": ["kawahara", "verify", "--theorem", "1", "--f", "log:gamma,delta,c"],
}
INTERNING_SCRIPT = """
import contextlib, io, json, sys
from jetcalc.cli import main
from jetcalc.poly import fnsym, param, unknown_t
for i in range(4):
    param(f"zz{i}"), fnsym(f"gg{i}"), unknown_t(f"hh{i}")
reports = []
for case in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = main(json.loads(sys.argv[2])[case])
    reports.append((case, code, out.getvalue()))
print(json.dumps(reports))
"""


def test_reports_do_not_depend_on_interning_order(monkeypatch):
    monkeypatch.delenv("JETCALC_PRECISION", raising=False)
    src = str(Path(__file__).parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    forward = sorted(INTERNING_CASES)
    reports = {}
    for first in (forward, forward[::-1]):
        order = first + first[::-1]
        proc = subprocess.run([sys.executable, "-c", INTERNING_SCRIPT, json.dumps(order),
                               json.dumps(INTERNING_CASES)],
                              env=env, capture_output=True, text=True, check=True)
        for case, code, out in json.loads(proc.stdout):
            reports.setdefault(case, set()).add((code, out))
    assert all(len(seen) == 1 for seen in reports.values()), sorted(reports)
    (code, out), = reports["root_log"]
    assert {"exit": code, "stderr": "", "stdout_sha256": hashlib.sha256(out.encode()).hexdigest()} \
        == PINNED["root_log/text"]
    (code, out), = reports["theorem1_log"]
    assert code == 0
    assert out == (Path(__file__).parent / "golden" / "theorem1_log.txt").read_text()


def test_importing_the_cli_leaves_hashlib_unloaded():
    # only the equation-file digest uses hashlib, so start-up does not pay for it
    src = str(Path(__file__).parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    script = ("import sys; loaded = 'hashlib' in sys.modules; import jetcalc.cli; "
              "print(loaded or 'hashlib' not in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, check=True)
    assert proc.stdout == "True\n"
