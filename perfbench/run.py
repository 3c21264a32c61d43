"""Run one jetcalc benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

A closed loop: one client sends jetcalc CLI commands to a worker one at a
time, each after the previous reply.  Every timed repetition runs the
workload's whole command list in a fresh worker interpreter, started one
at a time, so no process-global state carries over between repetitions.
With ``--trace 0`` the end-to-end metrics are printed; with ``--trace 1``
untraced and traced repetitions alternate and the per-layer metrics are
printed.  The last line of output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracer import add_totals, layer_metrics  # noqa: E402
from workloads import ROOT, WORKLOADS  # noqa: E402

MIN_REPS = 3          # timed repetitions per run, at least
SETUP_PROBES = 24     # worker starts that only measure set-up, spread over the
                      # first MIN_REPS repetitions of an untraced run
RUN_LIMIT_S = 170.0   # workers still running after this are killed

# The engine iterates sets of generators, whose order follows string hashing,
# so the hash seed changes which gcds run (Theorem 3 on log f: 2,410 to 2,415
# outermost gcd calls at four hash seeds).  A fixed seed makes the counts of
# traced runs repeat exactly and keeps that variation out of the times.
# Bytecode caching is on whatever the caller's environment says, so set-up
# time is the import of compiled modules, as for an installed package.
WORKER_ENV = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
WORKER_ENV["PYTHONHASHSEED"] = "0"


class WorkerError(RuntimeError):
    pass


class Worker:
    """A worker process; ``setup_s`` is the time from start until it is ready."""

    def __init__(self, trace: int, deadline: float):
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), "--trace", str(trace)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            cwd=ROOT, env=WORKER_ENV)
        self.watchdog = threading.Timer(max(deadline - t0, 0.0), self.proc.kill)
        self.watchdog.daemon = True
        self.watchdog.start()
        try:
            self.read()
        except WorkerError:
            self.close()
            raise
        self.setup_s = time.perf_counter() - t0

    def read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise WorkerError(f"worker ended with code {self.proc.wait()}")
        return json.loads(line)

    def request(self, doc: dict) -> dict:
        self.proc.stdin.write(json.dumps(doc) + "\n")
        self.proc.stdin.flush()
        return self.read()

    def close(self):
        self.watchdog.cancel()
        try:
            self.proc.stdin.close()
        except OSError:
            pass
        self.proc.wait()
        self.proc.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


@dataclass
class Rep:
    trace: int
    setup_s: float = 0.0
    wall_s: float = 0.0
    rss_kb: int = 0
    replies: list = field(default_factory=list)
    complete: bool = False


def run_rep(commands, trace: int, deadline: float) -> Rep:
    rep = Rep(trace)
    try:
        with Worker(trace, deadline) as w:
            rep.setup_s = w.setup_s
            t0 = time.perf_counter()
            for cmd in commands:
                rep.replies.append(w.request({"argv": list(cmd.argv)}))
            rep.wall_s = time.perf_counter() - t0
        rep.rss_kb = rep.replies[-1]["rss_kb"]
        rep.complete = True
    except WorkerError as exc:
        sys.stderr.write(f"repetition failed: {exc}\n")
    return rep


def probe_setup(deadline: float) -> float:
    with Worker(0, deadline) as w:
        return w.setup_s


def root_check(argv, report: str, deadline: float) -> str | None:
    """R^n = A on the printed window, in a fresh worker outside the timed loop."""
    _, a_text, _, n, _, prec = argv
    try:
        with Worker(0, deadline) as w:
            doc = {"a_text": a_text, "report": report, "n": int(n), "prec": int(prec)}
            return w.request({"root_check": doc})["failure"]
    except WorkerError as exc:
        return str(exc)


def check_reps(commands, reps: list[Rep]) -> tuple[int, int, list[str]]:
    """Check every reply; all repetitions must also print the same reports."""
    attempted = failed = 0
    failures = []
    first = {}
    for rep in reps:
        for i, cmd in enumerate(commands):
            attempted += 1
            if i >= len(rep.replies):
                reason = "worker died before replying"
            else:
                r = rep.replies[i]
                if r["exit"] is None:
                    reason = "uncaught exception"
                else:
                    reason = cmd.check(r["report"], r["exit"])
                first.setdefault(i, r["report"])
                if reason is None and r["report"] != first[i]:
                    reason = "report differs from the first repetition"
            if reason is not None:
                failed += 1
                failures.append(f"{cmd.label} (trace {rep.trace}): {reason}")
    return attempted, failed, failures


def trace_totals(rep: Rep) -> dict:
    totals: dict = {}
    for r in rep.replies:
        add_totals(totals, r["trace"])
    return totals


def per_layer(untraced: list[Rep], traced: list[Rep]) -> tuple[dict, list[str]]:
    """Per-layer metrics: counts from the traced repetitions, which must agree
    exactly; times are medians over them."""
    runs = [layer_metrics(trace_totals(rep)) for rep in traced]
    failures = []
    metrics = {}
    for name, (value, unit) in runs[0].items():
        values = [run[name][0] for run in runs]
        if unit == "s":
            value = statistics.median(values)
        elif any(v != value for v in values):
            failures.append(f"{name} differs between traced repetitions: {values}")
        metrics[name] = (value, unit)
    out_bytes = sum(len(r["report"].encode()) for r in traced[0].replies)
    metrics["dsl.output_bytes"] = (out_bytes, "bytes")
    metrics["trace.overhead_ratio"] = (
        statistics.median(r.wall_s for r in traced)
        / statistics.median(r.wall_s for r in untraced), "ratio")
    return metrics, failures


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "jetcalc" / "cli.py").is_file() \
            or not (ROOT / "tests" / "golden").is_dir():
        sys.stderr.write(f"no jetcalc sources and goldens under {ROOT}\n")
        return 2

    deadline = time.perf_counter() + RUN_LIMIT_S
    workload = WORKLOADS[args.workload]
    commands = workload.commands(args.seed)

    setups: list[float] = []
    t0 = time.perf_counter()
    reps: list[Rep] = []
    rounds = 0
    while True:
        while not args.trace and \
                len(setups) < SETUP_PROBES * min(rounds + 1, MIN_REPS) // MIN_REPS:
            setups.append(probe_setup(deadline))
        for trace in ((0, 1) if args.trace else (0,)):
            reps.append(run_rep(commands, trace, deadline))
        rounds += 1
        elapsed = time.perf_counter() - t0
        if not reps[-1].complete:
            break
        if elapsed >= args.seconds and (args.trace or rounds >= MIN_REPS):
            break
        if time.perf_counter() + elapsed / rounds > deadline:
            break

    attempted, failed, failures = check_reps(commands, reps)
    if commands[0].argv[0] == "root" and reps[0].complete:
        attempted += 1
        reason = root_check(commands[0].argv, reps[0].replies[0]["report"], deadline)
        if reason is not None:
            failed += 1
            failures.append(f"root round-trip: {reason}")

    untraced = [r for r in reps if r.complete and not r.trace]
    traced = [r for r in reps if r.complete and r.trace]
    if not untraced or (args.trace and not traced):
        sys.stderr.write("no repetition completed\n" + "\n".join(failures) + "\n")
        return 1
    if args.trace:
        metrics, count_failures = per_layer(untraced, traced)
        attempted += 1
        if count_failures:
            failed += 1
            failures.extend(count_failures)
    else:
        setups += [r.setup_s for r in untraced]
        metrics = {
            "wall_s": (statistics.median(r.wall_s for r in untraced), "s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (statistics.median(r.rss_kb for r in untraced) / 1024, "MB"),
        }

    print(f"workload {workload.name} seed {args.seed}: {len(untraced)} untraced"
          f" and {len(traced)} traced repetitions of {len(commands)} commands")
    for trace, group in ((0, untraced), (1, traced)):
        if group:
            print(f"wall_s samples, trace {trace}: "
                  + " ".join(f"{r.wall_s:.3f}" for r in group))
    for f in failures:
        print(f"FAILED {f}")
    for name, (value, unit) in metrics.items():
        print(f"{name:34} {value:>14.6g} {unit}")
    print(f"{'error_rate':34} {failed / attempted:>14.6g} ratio")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
