#!/usr/bin/env python3
"""Build ``pins.json``: the case pools of every workload and the answers
the program gives on them.

    python3 braidbench/pin.py

For every stratum in ``workloads.STRATA`` it runs each candidate through
the CLI, drops candidates slower than ``LIMIT_S``, times the rest
``REPEATS`` times in round-robin order (so that a slow spell of the
machine does not single out one candidate) and keeps the ones whose
fastest time lies within ``TOLERANCE`` of the stratum median (at least
``MIN_POOL``, the closest ones), so that every choice of the seed costs
about the same.  For each kept case it pins the SHA-256 of the CLI output
and, for ``invariant`` cases, of the ``flips`` output, with the event
count and the largest label (terms) seen in a traced run.

The pins record the answers of the program they were made from (named in
``source``); the benchmark counts any later difference as a failed case.
Rebuild them only when the answers are meant to change, never to make a
failing change pass.  Refuses to pin a pool in which an isotopic pair does
not compare EQUAL.
"""

from __future__ import annotations

import json
import signal
import statistics
import sys
import time

import run
import workloads

LIMIT_S = 15.0
REPEATS = 3
TOLERANCE = 0.08
MIN_POOL = 3


class TooSlow(Exception):
    pass


def _alarm(signum, frame):
    raise TooSlow()


def timed(cli, case):
    signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, LIMIT_S)
    start = time.perf_counter()
    try:
        code, stdout, _ = run.call_cli(cli, run.case_argv(case))
    except TooSlow:
        return None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    elapsed = time.perf_counter() - start
    if "stdout_sha256" not in case:
        case.update(exit=code, stdout_sha256=run.sha256(stdout), pin_seconds=elapsed)
        if case["kind"] == "equal" and run.check_answer(case, code, stdout):
            raise SystemExit(f"isotopic pair {case['words']} does not compare EQUAL: {stdout!r}")
        if case["kind"] == "invariant" and code != 0:
            raise SystemExit(f"invariant {case['words']} exited {code}")
    elif run.check_answer(case, code, stdout):
        raise SystemExit(f"{case['words']} gave two different answers")
    case["pin_seconds"] = min(case["pin_seconds"], elapsed)
    return case


def pool(candidates):
    median = statistics.median(c["pin_seconds"] for c in candidates)
    ranked = sorted(candidates, key=lambda c: abs(c["pin_seconds"] - median))
    kept = [c for c in ranked if abs(c["pin_seconds"] - median) <= TOLERANCE * median]
    return kept if len(kept) >= MIN_POOL else ranked[:MIN_POOL]


def finish_invariant(cli, case):
    import tracer as tracer_module

    code, stdout, _ = run.call_cli(cli, ["flips", "--n", str(case["n"]), case["words"][0]])
    if code != 0:
        raise SystemExit(f"flips {case['words']} exited {code}")
    case["flips_sha256"] = run.sha256(stdout)
    case["events"] = len(json.loads(stdout))
    tracer = tracer_module.Tracer()
    with tracer.installed():
        _, traced, _ = run.call_cli(cli, run.case_argv(case))
    if run.sha256(traced) != case["stdout_sha256"]:
        raise SystemExit(f"traced answer of {case['words']} differs")
    case["label_terms_max"] = tracer_module.layer_totals(tracer.spans)["coordinates.label_terms_max"]


def main():
    cli = run.load_cli()
    run.call_cli(cli, run.SETUP_ARGV)
    _, setup_out, _ = run.call_cli(cli, run.SETUP_ARGV)
    pins = {
        "source": {"git_commit": run.git_commit(), "source_sha256": run.source_digest()},
        "setup_sha256": run.sha256(setup_out),
        "workloads": {},
    }
    for workload, strata in workloads.STRATA.items():
        pins["workloads"][workload] = []
        for stratum in strata:
            measured = workloads.candidates(workload, stratum)
            fast = [c for c in measured if timed(cli, c) is not None]
            for _ in range(REPEATS - 1):
                for case in fast:
                    timed(cli, case)
            kept = pool(fast)
            for case in kept:
                if case["kind"] == "invariant":
                    finish_invariant(cli, case)
            times = [round(c["pin_seconds"], 2) for c in kept]
            print(f"{workload} {stratum[0]}: kept {len(kept)} of {len(measured)} {times}", flush=True)
            pins["workloads"][workload].append({"name": stratum[0], "cases": kept})
    with open(workloads.PINS_PATH, "w", encoding="utf-8") as handle:
        json.dump(pins, handle, indent=1)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
