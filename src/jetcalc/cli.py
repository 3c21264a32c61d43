"""Command-line front end.

Every subcommand wraps one library operation and prints a deterministic
report (text by default, JSON with --json).  Exit codes: 0 for a verified /
zero-residual outcome, 1 for a nonzero residual or obstruction (still a
successful run), 2 for usage, parse and input errors, 3 for an internal
error.  ``kawahara verify`` maps an obstruction onto "theorem verified",
exit 0.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from functools import cache
from pathlib import Path

from . import __version__
from .analysis import (
    check_density,
    formal_symmetry_scan,
    is_trivial_density,
    symmetry_from_density,
    symmetry_residual,
)
from .calculus import EvolutionEquation, euler, order, order_text, total_t, total_x, frechet
from .dsl import parse, parse_series, print_expr, print_series
from .errors import DslSyntaxError, JetCalcError
from .expr import FunctionSpec, holds_log, specialize_f
from .kawahara import verify_theorem
from .poly import KIND_PARAM
from .series import MAX_SLOTS, adjoint, commutator, compose, nth_root, positive_int


class Report:
    """Deterministic report document."""

    def __init__(self, command: list[str]):
        self.command = " ".join(command)
        self.inputs: list[tuple[str, str]] = []
        self.lines: list[str] = []
        self.fields: dict = {}
        self.verdict: str | None = None
        self.exit_code = 0

    def add_input(self, name: str, value: str):
        self.inputs.append((name, value))

    def add(self, line: str):
        self.lines.append(line)

    def set(self, key: str, value):
        """JSON field key; a callable value is called only when JSON renders."""
        self.fields[key] = value

    def render_text(self) -> str:
        out = [f"jetcalc {__version__}", f"command: {self.command}"]
        for name, value in self.inputs:
            out.append(f"input {name}: {value}")
        out.extend(self.lines)
        if self.verdict is not None:
            out.append(f"verdict: {self.verdict}")
        out.append(f"exit: {self.exit_code}")
        return "\n".join(out) + "\n"

    def render_json(self) -> str:
        doc = {
            "version": __version__,
            "command": self.command,
            "inputs": {k: v for k, v in self.inputs},
            "verdict": self.verdict,
            "exit": self.exit_code,
        }
        doc.update({k: v() if callable(v) else v for k, v in self.fields.items()})
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _digest(data: bytes) -> str:
    import hashlib  # only an equation file is digested; kept off start-up

    return hashlib.sha256(data).hexdigest()[:16]


def parse_f_spec(text: str) -> FunctionSpec:
    """abstract | linear:alpha,beta | log:gamma,delta,c | quadratic | poly:c0,c1,..."""
    head, _, rest = text.partition(":")
    if head == "abstract":
        return FunctionSpec.abstract()
    if head == "quadratic":
        return FunctionSpec.quadratic()
    if head == "linear":
        names = rest.split(",") if rest else ["alpha", "beta"]
        if len(names) != 2:
            raise JetCalcError("linear spec needs two entries: linear:alpha,beta")
        return FunctionSpec.linear(*[_coeff(n) for n in names])
    if head == "log":
        names = rest.split(",") if rest else ["gamma", "delta", "c"]
        if len(names) != 3:
            raise JetCalcError("log spec needs three entries: log:gamma,delta,c")
        if names[2].strip() != "c":
            raise JetCalcError("the logarithm shift must be the symbolic parameter c")
        return FunctionSpec.log_shift(_coeff(names[0]), _coeff(names[1]))
    if head == "poly":
        coeffs = [parse(n) for n in rest.split(",")] if rest else []
        if not coeffs:
            raise JetCalcError("poly spec needs coefficients: poly:c0,c1,...")
        return FunctionSpec.polynomial(coeffs)
    raise JetCalcError(f"unknown f specification {text!r}")


def _coeff(text: str):
    text = text.strip()
    try:
        return Fraction(text)
    except ValueError:
        return text


def load_equation(path: str, report: Report) -> EvolutionEquation:
    data = Path(path).read_bytes()
    report.add_input(f"eq-file {path}", f"sha256:{_digest(data)}")
    doc = json.loads(data)
    if not isinstance(doc, dict) or not isinstance(doc.get("rhs"), str):
        raise JetCalcError(f"{path}: an equation file is a JSON object "
                           "with a string \"rhs\"")
    f = doc.get("f", "abstract")
    if not isinstance(f, str):
        raise JetCalcError(f"{path}: \"f\" must be a string")
    # no command with an equation file has a series window, so a valid
    # precision changes no report
    precision = doc.get("precision", 1)
    if type(precision) is not int or precision < 1:  # bool is not a precision
        raise JetCalcError(f"{path}: \"precision\" must be a positive integer")
    fspec = parse_f_spec(f)
    rhs = specialize_f(parse(doc["rhs"]), fspec)
    if "params" in doc:
        listed = doc["params"]
        if not isinstance(listed, list) or not all(isinstance(n, str) for n in listed):
            raise JetCalcError(f"{path}: \"params\" must be a list of strings")
        # ln(u+c) carries the parameter c
        found = sorted({g.name for g in rhs.generators() if g.kind == KIND_PARAM}
                       | ({"c"} if holds_log(rhs) else set()))
        if sorted(listed) != found:
            raise JetCalcError(f"{path}: \"params\" {json.dumps(listed)} differs from the "
                               f"parameters of \"rhs\": {json.dumps(found)}")
    return EvolutionEquation(rhs, fspec)


# -- subcommands ----------------------------------------------------------------
# A handler takes (args, report, eq); eq is the loaded --eq file, or None for a
# command without one.  Library functions are called by name inside the
# handlers, never stored in the tables, so that rebinding a module attribute
# (as a profiler or tracer does) reaches every call.


def _operand(args, report: Report, name: str, eq=None):
    """Parse operand ``name``, record it as an input, specialize f to eq's."""
    text = getattr(args, name)
    e = parse(text)
    report.add_input(name, text)
    return e if eq is None else specialize_f(e, eq.fspec)


def _series(args, report: Report, name: str):
    """Parse the xi-series operand ``name`` and record it as an input."""
    text = getattr(args, name)
    A = parse_series(text)
    report.add_input(name, text)
    return A


def _result(report: Report, text: str, label: str = "result", key: str = "result"):
    report.add(f"{label}: {text}")
    report.set(key, text)


# a conserved density (Euler test) whose flux formal_x_integrate cannot build
FLUX_NOT_RECONSTRUCTED = "flux: not reconstructed (outside the integrator's class)"


def _verdict(report: Report, ok: bool, yes: str, no: str):
    report.verdict = yes if ok else no
    report.exit_code = 0 if ok else 1


def _symmetry(args, report, eq):
    residual = symmetry_residual(eq, _operand(args, report, "Q", eq))
    _result(report, print_expr(residual), "residual", "residual")
    _verdict(report, residual.is_zero, "generalized symmetry (residual = 0)",
             "not a symmetry (residual != 0)")


def _density(args, report, eq):
    conserved, flux, residual = check_density(eq, _operand(args, report, "rho", eq))
    if conserved and args.flux:
        if flux is None:
            report.add(FLUX_NOT_RECONSTRUCTED)
            report.set("flux_reconstructed", False)
        else:
            _result(report, print_expr(flux), "flux", "flux")
            _result(report, print_expr(residual), "conservation residual", "residual")
    _verdict(report, conserved, "conserved density", "not a conserved density")


def _lemma1(args, report, eq):
    Q = symmetry_from_density(_operand(args, report, "rho", eq))
    residual = symmetry_residual(eq, Q)
    _result(report, print_expr(Q), "characteristic")
    _result(report, print_expr(residual), "residual", "residual")
    _verdict(report, residual.is_zero,
             "D_x(delta rho/delta u) is a symmetry characteristic",
             "map did not produce a symmetry")


def _render_scan(scan, report):
    printed = []
    for s in scan.steps:
        constraints = [print_expr(c) for c in s.reduced_constraints]
        line = f"xi^{s.xi_index}: coefficient {s.coefficient_name}"
        if constraints:
            line += " | constraints: " + "; ".join(f"{c} = 0" for c in constraints)
        if s.forced:
            line += " | " + ", ".join(s.forced)
        if s.notes:
            line += " | " + "; ".join(s.notes)
        report.add(line)
        printed.append((s, constraints))
    report.set("steps", lambda: [{
        "xi_index": s.xi_index,
        "coefficient": s.coefficient_name,
        "constraints": constraints,
        "forced": list(s.forced),
        "solved": (print_expr(s.solved_coefficient)
                   if s.solved_coefficient is not None else ""),
        "notes": list(s.notes),
    } for s, constraints in printed])


def _scan(args, report, eq):
    scan = formal_symmetry_scan(eq, args.rank)
    _render_scan(scan, report)
    _verdict(report, scan.survived, scan.verdict, scan.verdict)


def _kawahara_verify(args, report, eq):
    fspec = parse_f_spec(args.f)
    report.add_input("theorem", str(args.theorem))
    report.add_input("f", args.f)
    rep = verify_theorem(args.theorem, fspec)
    for line in rep.details:
        report.add(line)
    for s in rep.symmetries:
        report.add(f"{s.label} = {print_expr(s.Q)}: "
                   f"{'verified' if s.verified else 'FAILED'}")
    diffs = {}
    for d in rep.densities:
        report.add(f"{d.label} = {print_expr(d.rho)}: "
                   f"{'conserved' if d.verified else 'FAILED'}")
        if d.flux is not None:
            report.add(f"  flux (reconstructed): {print_expr(d.flux)}")
        elif d.verified:
            report.add(f"  {FLUX_NOT_RECONSTRUCTED}")
        if d.flux_diff_vs_printed is not None:
            diffs[d.label] = print_expr(d.flux_diff_vs_printed)
            report.add(f"  printed flux minus reconstruction: {diffs[d.label]}")
        if d.density_diff_vs_printed is not None:
            report.add("  density minus printed density: "
                       f"{print_expr(d.density_diff_vs_printed)}")
    for q in rep.extra_symmetries:
        report.add(f"point-ansatz symmetry: {print_expr(q)}")
    if rep.scan is not None:
        _render_scan(rep.scan, report)
        report.add(rep.scan.verdict)
    if diffs:
        report.set("diff_vs_printed", diffs)
    _verdict(report, rep.verified, f"theorem {args.theorem} verified",
             f"theorem {args.theorem} NOT verified")


# (name, help, "operand --option ...", handler); options are spelled in OPTIONS
COMMANDS = (
    ("dx", "total x-derivative of an expression", "expr",
     lambda a, r, eq: _result(r, print_expr(total_x(_operand(a, r, "expr"))))),
    ("dt", "total t-derivative on an equation", "expr --eq",
     lambda a, r, eq: _result(r, print_expr(total_t(_operand(a, r, "expr", eq), eq)))),
    ("euler", "variational derivative", "expr",
     lambda a, r, eq: _result(r, print_expr(euler(_operand(a, r, "expr"))))),
    ("frechet", "Frechet derivative of F applied to Q", "F Q",
     lambda a, r, eq: _result(r, print_expr(frechet(_operand(a, r, "F"),
                                                    _operand(a, r, "Q"))))),
    ("order", "order of a differential function", "expr",
     lambda a, r, eq: _result(r, order_text(order(_operand(a, r, "expr"))), "order")),
    ("compose", "compose two xi-series", "A B --prec",
     lambda a, r, eq: _result(r, print_series(compose(
         _series(a, r, "A"), _series(a, r, "B"), slots=a.prec)))),
    ("adjoint", "formal adjoint of a xi-series", "A --prec",
     lambda a, r, eq: _result(r, print_series(adjoint(_series(a, r, "A"), slots=a.prec)))),
    ("commutator", "commutator of two xi-series", "A B --prec",
     lambda a, r, eq: _result(r, print_series(commutator(
         _series(a, r, "A"), _series(a, r, "B"), slots=a.prec)))),
    ("root", "n-th root of a monic xi-series", "A --n --prec",
     lambda a, r, eq: _result(r, print_series(nth_root(
         _series(a, r, "A"), a.n, slots=a.prec)))),
    ("symmetry", "generalized-symmetry residual", "Q --eq", _symmetry),
    ("density", "conserved-density test", "rho --eq --flux", _density),
    ("trivial", "triviality test for a density", "rho",
     lambda a, r, eq: _verdict(r, is_trivial_density(_operand(a, r, "rho")),
                               "trivial density (a total x-derivative)",
                               "nontrivial density")),
    ("lemma1", "density-to-symmetry Hamiltonian map", "rho --eq", _lemma1),
    ("scan", "formal-symmetry obstruction scan", "--eq --rank", _scan),
)


def _slots(text: str) -> int:
    """The --prec window: a positive integer of at most MAX_SLOTS."""
    try:
        value = positive_int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a positive integer: {text!r}") from None
    if value > MAX_SLOTS:
        raise argparse.ArgumentTypeError(f"{value} slots exceed the maximum window of {MAX_SLOTS}")
    return value


OPTIONS = {
    "--eq": dict(required=True),
    "--prec": dict(type=_slots),
    "--n": dict(type=positive_int, required=True),
    "--flux": dict(action="store_true"),
    "--rank": dict(type=int, default=13),
    "--theorem": dict(type=int, required=True, choices=(1, 2, 3)),
    "--f": dict(default="abstract"),
}


# -- argument parsing -----------------------------------------------------------


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


class _UsageError(Exception):
    pass


def _add_command(sub, name, help_text, signature, handler):
    sp = sub.add_parser(name, help=help_text)
    sp.set_defaults(handler=handler)
    for arg in signature.split():
        sp.add_argument(arg, **OPTIONS.get(arg, {}))


@cache
def build_parser(name: str | None = None) -> _ArgumentParser:
    """The parser of command ``name`` alone, or of every command; built once
    per name and process: parsing leaves it unchanged, a usage error included.
    A command's help and usage errors are the same from either parser."""
    p = _ArgumentParser(prog="jetcalc",
                        description="exact jet calculus for scalar evolution equations")
    p.add_argument("--json", action="store_true", help="emit a JSON report")
    sub = p.add_subparsers(dest="cmd", required=True)
    for command in COMMANDS:
        if name in (None, command[0]):
            _add_command(sub, *command)
    if name in (None, "kawahara"):
        kw = sub.add_parser("kawahara", help="case-study verifiers")
        _add_command(kw.add_subparsers(dest="kcmd", required=True), "verify",
                     "verify one of the three theorems", "--theorem --f", _kawahara_verify)
    return p


COMMAND_NAMES = frozenset(name for name, *_ in COMMANDS) | {"kawahara"}


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # the first argument other than --json names the command; anything else
    # (none, -h, an unknown or abbreviated token) takes the full parser
    name = next((a for a in argv if a != "--json"), None)
    parser = build_parser(name if name in COMMAND_NAMES else None)
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return 2
    report = Report(["jetcalc"] + argv)
    try:
        eq = load_equation(args.eq, report) if "eq" in args else None
        args.handler(args, report, eq)
    except DslSyntaxError as exc:
        sys.stderr.write(f"syntax error: {exc}\n")
        return 2
    except (JetCalcError, OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except Exception as exc:  # a defect, not a bad input; KeyboardInterrupt propagates
        sys.stderr.write(f"internal error: {type(exc).__name__}: {exc}\n")
        return 3
    text = report.render_json() if args.json else report.render_text()
    sys.stdout.write(text)
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
