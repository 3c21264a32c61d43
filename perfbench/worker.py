"""One benchmark worker: a fresh interpreter serving jetcalc CLI commands.

Protocol, one JSON document per line.  The worker prints ``{"ready": ...}``
once ``jetcalc.cli`` is imported, then answers each request read from stdin:

    {"argv": [...]}          -> {"exit", "report", "seconds", "rss_kb"[, "trace"]}
    {"root_check": {...}}    -> {"failure": null | "reason"}

and exits at end of input.  Run as ``python3 perfbench/worker.py --trace 0|1``.
"""

from __future__ import annotations

import argparse
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def root_round_trip(a_text: str, report: str, n: int, prec: int) -> str | None:
    """Parse the printed root R back and check R^n = A on its window, exactly."""
    from jetcalc.dsl import parse_series
    from jetcalc.series import PsdSeries, series_power

    lines = [ln for ln in report.splitlines() if ln.startswith("result: ")]
    if len(lines) != 1:
        return "no single result line"
    body, sep, window = lines[0][len("result: "):].rpartition(" + O(xi^")
    if not sep:
        return "result has no O(xi^k) window"
    bottom = int(window.rstrip(")")) + 1
    R = PsdSeries.from_coeffs(dict(parse_series(body).items()), exact=False,
                              bottom=bottom)
    A = parse_series(a_text)
    power = series_power(R, n, slots=prec)
    for i in range(n - prec + 1, n + 1):
        try:
            have = power.coeff(i)
        except IndexError:
            return f"R^{n} is not known at xi^{i}"
        if have != A.coeff(i):
            return f"R^{n} differs from the input at xi^{i}"
    return None


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    channel = sys.stdout

    from jetcalc import cli

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    def send(doc):
        channel.write(json.dumps(doc) + "\n")
        channel.flush()

    send({"ready": True})
    for line in sys.stdin:
        req = json.loads(line)
        if "root_check" in req:
            try:
                failure = root_round_trip(**req["root_check"])
            except Exception:
                failure = traceback.format_exc(limit=3)
            send({"failure": failure})
            continue
        out = io.StringIO()
        sys.stdout = out
        t0 = time.perf_counter()
        try:
            code = cli.main(list(req["argv"]))
        except Exception:
            code = None
            sys.stderr.write(traceback.format_exc())
        finally:
            seconds = time.perf_counter() - t0
            sys.stdout = channel
        reply = {"exit": code, "report": out.getvalue(), "seconds": seconds,
                 "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
        if tracer is not None:
            reply["trace"] = tracer.collect()
        send(reply)
    return 0


if __name__ == "__main__":
    sys.exit(main())
