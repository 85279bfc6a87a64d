"""The warm group session: one interpreter, cold verdict, then warm calls.

Usage: python perfbench/session.py PLAN RESULT SECONDS [SPANS_FILE]

Set-up runs the plan's cold CLI verdict (``verify generation --genus 3
--arf A --json --out FILE``) through ``spincycles.cli.main``, the code
``python -m spincycles.cli`` runs, which fills the in-process full-group
cache.  Warm calls then run in whole passes of the plan for SECONDS
seconds, and at least the plan's ``min_passes`` passes.  With SPANS_FILE
the layers are traced, and every warm call runs twice, untraced and then
traced, so the tracing overhead is measured on identical work.

Times are ``time.monotonic()`` stamps, the clock the benchmark process
reads too.  The result file holds the stamps, the verdict's exit code and
every call's wall time and transcript.
"""

import contextlib
import json
import sys
import time


def _call(fn_name, genus, arf, q_a, q_b):
    from spincycles import symplectic
    from spincycles.spin import QuadraticForm

    fn = getattr(symplectic, fn_name)
    if fn_name == "verify_arf_classification":
        return lambda: fn(genus)
    q = QuadraticForm(tuple(q_a), tuple(q_b))
    return lambda: fn(q)


def run() -> int:
    plan_path, result_path, seconds, *rest = sys.argv[1:]
    spans_path = rest[0] if rest else None
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    t_start = time.monotonic()
    from spincycles import cli

    t_import = time.monotonic()
    if spans_path:
        import tracing

        tracing.install()
        tracing.STATE["job"] = "setup"
    with open(plan["verdict_stdout"], "w", encoding="utf-8") as out, \
            contextlib.redirect_stdout(out):
        code = cli.main(plan["verdict_argv"])
    t_ready = time.monotonic()

    deadline = t_ready + float(seconds)
    calls = []
    last_pass = 0.0
    for number, calls_of_pass in enumerate(plan["passes"]):
        pass_start = time.monotonic()
        if number >= plan["min_passes"] and pass_start + last_pass > deadline:
            break
        for k, (fn_name, genus, arf, q_a, q_b) in enumerate(calls_of_pass):
            fn = _call(fn_name, genus, arf, q_a, q_b)
            record = {"call": [fn_name, genus, arf], "pass": number}
            if spans_path:
                tracing.STATE["enabled"] = False
            t0 = time.monotonic()
            record["result"] = fn()
            record["wall"] = time.monotonic() - t0
            if spans_path:
                tracing.STATE.update(enabled=True, job=f"w{number}.{k}")
                t0 = time.monotonic()
                record["traced_result"] = fn()
                record["traced_wall"] = time.monotonic() - t0
            calls.append(record)
        last_pass = time.monotonic() - pass_start
    if spans_path:
        tracing.dump(spans_path)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump({"t_start": t_start, "t_import": t_import, "t_ready": t_ready,
                   "verdict_code": code, "calls": calls}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(run())
