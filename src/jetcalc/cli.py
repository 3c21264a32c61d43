"""Command-line front end.

Every subcommand wraps one library operation and prints a deterministic
report (text by default, JSON with --json).  Exit codes: 0 for a verified /
zero-residual outcome, 1 for a nonzero residual or obstruction (still a
successful run), 2 for usage or parse errors.  ``kawahara verify`` maps an
obstruction onto "theorem verified", exit 0.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from fractions import Fraction
from pathlib import Path

from . import __version__
from .analysis import (
    conservation_residual,
    formal_symmetry_scan,
    is_conserved_density,
    is_trivial_density,
    reconstruct_flux,
    symmetry_from_density,
    symmetry_residual,
)
from .calculus import NEG_INF, EvolutionEquation, euler, order, total_t, total_x, frechet
from .dsl import parse, parse_series, print_expr, print_series
from .errors import DslSyntaxError, JetCalcError
from .expr import FunctionSpec, specialize_f
from .kawahara import GKESpec, verify_theorem
from .series import adjoint, commutator, compose, nth_root


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
        doc.update(self.fields)
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _digest(data: bytes) -> str:
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
    fspec = parse_f_spec(doc.get("f", "abstract"))
    rhs = specialize_f(parse(doc["rhs"]), fspec)
    return EvolutionEquation(rhs, fspec)


def _emit(report: Report, args) -> int:
    text = report.render_json() if args.json else report.render_text()
    sys.stdout.write(text)
    return report.exit_code


# -- subcommand handlers --------------------------------------------------------


def cmd_dx(args, report):
    e = parse(args.expr)
    report.add_input("expr", args.expr)
    result = total_x(e)
    report.add(f"result: {print_expr(result)}")
    report.set("result", print_expr(result))


def cmd_dt(args, report):
    eq = load_equation(args.eq, report)
    e = specialize_f(parse(args.expr), eq.fspec)
    report.add_input("expr", args.expr)
    result = total_t(e, eq)
    report.add(f"result: {print_expr(result)}")
    report.set("result", print_expr(result))


def cmd_euler(args, report):
    e = parse(args.expr)
    report.add_input("expr", args.expr)
    result = euler(e)
    report.add(f"result: {print_expr(result)}")
    report.set("result", print_expr(result))


def cmd_frechet(args, report):
    F = parse(args.F)
    Q = parse(args.Q)
    report.add_input("F", args.F)
    report.add_input("Q", args.Q)
    result = frechet(F, Q)
    report.add(f"result: {print_expr(result)}")
    report.set("result", print_expr(result))


def cmd_order(args, report):
    e = parse(args.expr)
    report.add_input("expr", args.expr)
    o = order(e)
    text = "-oo" if o is NEG_INF else str(o)
    report.add(f"order: {text}")
    report.set("result", text)


def cmd_compose(args, report):
    A = parse_series(args.A)
    B = parse_series(args.B)
    report.add_input("A", args.A)
    report.add_input("B", args.B)
    result = compose(A, B, slots=args.prec)
    report.add(f"result: {print_series(result)}")
    report.set("result", print_series(result))


def cmd_adjoint(args, report):
    A = parse_series(args.A)
    report.add_input("A", args.A)
    result = adjoint(A, slots=args.prec)
    report.add(f"result: {print_series(result)}")
    report.set("result", print_series(result))


def cmd_commutator(args, report):
    A = parse_series(args.A)
    B = parse_series(args.B)
    report.add_input("A", args.A)
    report.add_input("B", args.B)
    result = commutator(A, B, slots=args.prec)
    report.add(f"result: {print_series(result)}")
    report.set("result", print_series(result))


def cmd_root(args, report):
    A = parse_series(args.A)
    report.add_input("A", args.A)
    result = nth_root(A, args.n, slots=args.prec)
    report.add(f"result: {print_series(result)}")
    report.set("result", print_series(result))


def cmd_symmetry(args, report):
    eq = load_equation(args.eq, report)
    Q = specialize_f(parse(args.Q), eq.fspec)
    report.add_input("Q", args.Q)
    residual = symmetry_residual(eq, Q)
    report.add(f"residual: {print_expr(residual)}")
    report.set("residual", print_expr(residual))
    if residual.is_zero:
        report.verdict = "generalized symmetry (residual = 0)"
    else:
        report.verdict = "not a symmetry (residual != 0)"
        report.exit_code = 1


def cmd_density(args, report):
    eq = load_equation(args.eq, report)
    rho = specialize_f(parse(args.rho), eq.fspec)
    report.add_input("rho", args.rho)
    conserved = is_conserved_density(eq, rho)
    if conserved:
        report.verdict = "conserved density"
        if args.flux:
            sigma = reconstruct_flux(eq, rho)
            check = conservation_residual(eq, rho, sigma)
            report.add(f"flux: {print_expr(sigma)}")
            report.add(f"conservation residual: {print_expr(check)}")
            report.set("flux", print_expr(sigma))
            report.set("residual", print_expr(check))
    else:
        report.verdict = "not a conserved density"
        report.exit_code = 1


def cmd_trivial(args, report):
    rho = parse(args.rho)
    report.add_input("rho", args.rho)
    trivial = is_trivial_density(rho)
    report.verdict = "trivial density (a total x-derivative)" if trivial \
        else "nontrivial density"
    report.exit_code = 0 if trivial else 1


def cmd_lemma1(args, report):
    eq = load_equation(args.eq, report)
    rho = specialize_f(parse(args.rho), eq.fspec)
    report.add_input("rho", args.rho)
    Q = symmetry_from_density(eq, rho)
    residual = symmetry_residual(eq, Q)
    report.add(f"characteristic: {print_expr(Q)}")
    report.add(f"residual: {print_expr(residual)}")
    report.set("result", print_expr(Q))
    report.set("residual", print_expr(residual))
    if residual.is_zero:
        report.verdict = "D_x(delta rho/delta u) is a symmetry characteristic"
    else:
        report.verdict = "map did not produce a symmetry"
        report.exit_code = 1


def _scan_steps_payload(scan):
    steps = []
    for s in scan.steps:
        steps.append({
            "xi_index": s.xi_index,
            "coefficient": s.coefficient_name,
            "constraints": [print_expr(c) for c in s.reduced_constraints],
            "forced": list(s.forced),
            "solved": (print_expr(s.solved_coefficient)
                       if s.solved_coefficient is not None
                       else s.solved_description),
            "notes": list(s.notes),
        })
    return steps


def _render_scan(scan, report):
    for s in scan.steps:
        line = f"xi^{s.xi_index}: coefficient {s.coefficient_name}"
        if s.reduced_constraints:
            line += " | constraints: " + "; ".join(
                f"{print_expr(c)} = 0" for c in s.reduced_constraints)
        if s.forced:
            line += " | " + ", ".join(s.forced)
        if s.notes:
            line += " | " + "; ".join(s.notes)
        report.add(line)
    report.set("steps", _scan_steps_payload(scan))


def cmd_scan(args, report):
    eq = load_equation(args.eq, report)
    scan = formal_symmetry_scan(eq, args.rank)
    _render_scan(scan, report)
    report.verdict = scan.verdict
    report.exit_code = 0 if scan.survived else 1


def cmd_kawahara_verify(args, report):
    fspec = parse_f_spec(args.f)
    spec = GKESpec(f=fspec)
    report.add_input("theorem", str(args.theorem))
    report.add_input("f", args.f)
    rep = verify_theorem(args.theorem, spec)
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
        if d.flux_diff_vs_printed is not None:
            report.add("  printed flux minus reconstruction: "
                       f"{print_expr(d.flux_diff_vs_printed)}")
            diffs[d.label] = print_expr(d.flux_diff_vs_printed)
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
    if rep.verified:
        report.verdict = f"theorem {args.theorem} verified"
    else:
        report.verdict = f"theorem {args.theorem} NOT verified"
        report.exit_code = 1


# -- argument parsing -----------------------------------------------------------


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


class _UsageError(Exception):
    pass


def build_parser() -> _ArgumentParser:
    p = _ArgumentParser(prog="jetcalc",
                        description="exact jet calculus for scalar evolution equations")
    p.add_argument("--json", action="store_true", help="emit a JSON report")
    sub = p.add_subparsers(dest="cmd", required=True)

    def add(name, handler, **kw):
        sp = sub.add_parser(name, **kw)
        sp.set_defaults(handler=handler)
        return sp

    sp = add("dx", cmd_dx, help="total x-derivative of an expression")
    sp.add_argument("expr")
    sp = add("dt", cmd_dt, help="total t-derivative on an equation")
    sp.add_argument("expr")
    sp.add_argument("--eq", required=True)
    sp = add("euler", cmd_euler, help="variational derivative")
    sp.add_argument("expr")
    sp = add("frechet", cmd_frechet, help="Frechet derivative of F applied to Q")
    sp.add_argument("F")
    sp.add_argument("Q")
    sp = add("order", cmd_order, help="order of a differential function")
    sp.add_argument("expr")
    sp = add("compose", cmd_compose, help="compose two xi-series")
    sp.add_argument("A")
    sp.add_argument("B")
    sp.add_argument("--prec", type=int, default=None)
    sp = add("adjoint", cmd_adjoint, help="formal adjoint of a xi-series")
    sp.add_argument("A")
    sp.add_argument("--prec", type=int, default=None)
    sp = add("commutator", cmd_commutator, help="commutator of two xi-series")
    sp.add_argument("A")
    sp.add_argument("B")
    sp.add_argument("--prec", type=int, default=None)
    sp = add("root", cmd_root, help="n-th root of a monic xi-series")
    sp.add_argument("A")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--prec", type=int, default=None)
    sp = add("symmetry", cmd_symmetry, help="generalized-symmetry residual")
    sp.add_argument("Q")
    sp.add_argument("--eq", required=True)
    sp = add("density", cmd_density, help="conserved-density test")
    sp.add_argument("rho")
    sp.add_argument("--eq", required=True)
    sp.add_argument("--flux", action="store_true")
    sp = add("trivial", cmd_trivial, help="triviality test for a density")
    sp.add_argument("rho")
    sp = add("lemma1", cmd_lemma1, help="density-to-symmetry Hamiltonian map")
    sp.add_argument("rho")
    sp.add_argument("--eq", required=True)
    sp = add("scan", cmd_scan, help="formal-symmetry obstruction scan")
    sp.add_argument("--eq", required=True)
    sp.add_argument("--rank", type=int, default=13)

    kw = sub.add_parser("kawahara", help="case-study verifiers")
    kw_sub = kw.add_subparsers(dest="kcmd", required=True)
    sp = kw_sub.add_parser("verify", help="verify one of the three theorems")
    sp.set_defaults(handler=cmd_kawahara_verify)
    sp.add_argument("--theorem", type=int, required=True, choices=(1, 2, 3))
    sp.add_argument("--f", default="abstract")
    return p


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return 2
    report = Report(["jetcalc"] + argv)
    try:
        args.handler(args, report)
    except DslSyntaxError as exc:
        sys.stderr.write(f"syntax error: {exc}\n")
        return 2
    except (JetCalcError, OSError, json.JSONDecodeError, KeyError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    return _emit(report, args)


if __name__ == "__main__":
    sys.exit(main())
