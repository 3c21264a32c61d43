"""Workloads: the jetcalc command lists the benchmark drives, and their checks.

Every input is generated from the seed; the program sees only the argv
lists.  Each command carries a check of its printed report.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"

F_BRANCH = {"abstract": "abstract", "linear": "linear:alpha,beta",
            "log": "log:gamma,delta,c", "quadratic": "quadratic"}

# Golden reports under tests/golden, keyed by (theorem, branch).
GOLDEN_FILES = {
    (1, "abstract"): "theorem1_abstract.txt",
    (1, "linear"): "theorem1_linear.txt",
    (1, "log"): "theorem1_log.txt",
    (2, "abstract"): "theorem2_abstract.txt",
    (2, "linear"): "theorem2_linear.txt",
    (3, "abstract"): "theorem3_abstract.txt",
    (3, "quadratic"): "theorem3_quadratic.txt",
}

ROOT_N = 5
ROOT_PREC = 18
ROOT_TERMS = ("b*xi^3", "f(u)*xi", "f'(u)*u_x")
MULTIPLIERS = tuple(Fraction(v) for v in ("2", "3", "1/2", "1/3", "2/3", "3/2"))


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]
    check: Callable[[str, int], str | None]   # (report, exit code) -> failure or None
    label: str


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    commands: Callable[[int], list[Command]]


def golden_check(fname: str):
    def check(report: str, code: int) -> str | None:
        if code != 0:
            return f"exit {code}, expected 0"
        if report != (GOLDEN / fname).read_text():
            return f"report differs from tests/golden/{fname}"
        return None
    return check


def verdict_check(code_expected: int, patterns: list[str]):
    """Exit code and one report line matching each regular expression."""
    compiled = [re.compile(p) for p in patterns]

    def check(report: str, code: int) -> str | None:
        if code != code_expected:
            return f"exit {code}, expected {code_expected}"
        lines = report.splitlines()
        for p in compiled:
            if not any(p.fullmatch(line) for line in lines):
                return f"no report line matches {p.pattern!r}"
        return None
    return check


CONSERVED = [rf"rho{i} = .*: conserved" for i in (1, 2, 3)]

# Verdicts fixed by the README and the paper for the non-golden commands.
VERDICTS = {
    (1, "log"): verdict_check(0, [r"verdict: theorem 1 verified"]),
    (1, "quadratic"): verdict_check(0, [r"Q1 = .*: verified", r"Q2 = .*: verified",
                                        r"verdict: theorem 1 verified"]),
    (2, "log"): verdict_check(0, CONSERVED + [r"verdict: theorem 2 verified"]),
    (2, "quadratic"): verdict_check(0, CONSERVED + [r"verdict: theorem 2 verified"]),
    (3, "log"): verdict_check(0, [r"ObstructionFound\(xi\^-3: g = 0\)",
                                  r"verdict: theorem 3 verified"]),
    (3, "linear"): verdict_check(1, [r"deeper scan: ObstructionFound\(xi\^-9: .*\); "
                                     r".*rank 15 or greater"]),
}


def theorem_command(theorem: int, branch: str) -> Command:
    key = (theorem, branch)
    check = golden_check(GOLDEN_FILES[key]) if key in GOLDEN_FILES else VERDICTS[key]
    argv = ("kawahara", "verify", "--theorem", str(theorem), "--f", F_BRANCH[branch])
    return Command(argv, check, f"theorem{theorem}_{branch}")


def _shuffled(seed: int, items: list) -> list:
    items = list(items)
    random.Random(seed).shuffle(items)
    return items


def kawahara_log(seed: int) -> list[Command]:
    return _shuffled(seed, [theorem_command(n, "log") for n in (1, 2, 3)])


def kawahara_poly(seed: int) -> list[Command]:
    return _shuffled(seed, [theorem_command(n, branch) for n in (1, 2, 3)
                            for branch in ("abstract", "linear", "quadratic")])


def root_series(seed: int) -> str:
    """The README root input; seed 0 verbatim, else rational multipliers."""
    rng = random.Random(seed)
    text = "xi^5"
    for term in ROOT_TERMS:
        if seed == 0:
            text += " + " + term
        else:
            k = rng.choice(MULTIPLIERS)
            text += rng.choice((" + ", " - ")) + f"{k}*{term}"
    return text


def root_readme(seed: int) -> list[Command]:
    # The root is printed up to O(xi^(1 - prec)); R^n itself is checked exactly
    # by the worker's round-trip, outside the timed region.
    pattern = re.compile(rf"result: xi \+ .* \+ O\(xi\^{1 - ROOT_PREC}\)")

    def check(report: str, code: int) -> str | None:
        if code != 0:
            return f"exit {code}, expected 0"
        if not any(pattern.fullmatch(line) for line in report.splitlines()):
            return "no result line with the requested window"
        return None
    argv = ("root", root_series(seed), "--n", str(ROOT_N), "--prec", str(ROOT_PREC))
    return [Command(argv, check, "root")]


WORKLOADS = {
    w.name: w for w in (
        Workload("root-readme",
                 "README root example at 18 slots: polynomial coefficients, so "
                 "series.compose driving calculus.total_x dominates and poly_gcd "
                 "is never called",
                 root_readme),
        Workload("kawahara-log",
                 "Theorems 1-3 on f = gamma*ln(u+c)+delta: rational coefficients "
                 "with (u+c)^k denominators, so expr reduction into poly_gcd "
                 "dominates",
                 kawahara_log),
        Workload("kawahara-poly",
                 "Theorems 1-3 on abstract, linear and quadratic f: many small "
                 "expressions, six goldens and five scan runs",
                 kawahara_poly),
    )
}
