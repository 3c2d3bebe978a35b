#!/usr/bin/env python3
"""Layered benchmark of braidshear: end-to-end timings, per-layer traces,
and answer checks, from one command.

    python3 braidbench/run.py --workload detect-wide --seed 1 --seconds 30 --trace 0
    python3 braidbench/run.py --smoke

Run it from anywhere inside a checkout; it measures ``src/braidshear`` of
the checkout it lives in and fails (exit 2, no result line) when that is
missing.  Workloads are described in ``workloads.py``.

One process, one thread, closed loop with one client: each case is a call
of ``braidshear.cli.main(argv)`` with standard output captured, and the
next starts when it returns.  Passes over the seed's case list repeat
until ``--seconds`` have elapsed.

``--trace 0`` reports the end-to-end metrics: ``run_s`` (mean pass wall
time; on a shared machine whose speed drifts, the mean over all passes
moves less than the median of the few passes a run holds), ``case_s.p50``
(median case wall time), ``peak_rss_mb`` and ``setup_s`` (median cold
start of a fresh interpreter that imports the CLI and serves
``invariant --n 3 --system ptolemy s1``; one after each pass).
``--trace 1`` spends half the time on untraced passes and half on traced
ones and reports per-layer metrics (medians over traced passes), the
tracing overhead, the flip-event hashes of every invariant case and the
agreement of the two detectors on the workload's smallest case.

Every case is checked: the SHA-256 of the CLI output against the answers
pinned in ``pins.json``, and ``EQUAL`` for every pair related by an
isotopy move.  A case fails on an exception, an unexpected exit code or a
wrong answer.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; a fuller record
(run metadata, per-case times and counts, spans) goes to
``.bench_out/<workload>-seed<seed>-trace<t>.json`` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

SETUP_ARGV = ["invariant", "--n", "3", "--system", "ptolemy", "s1"]
COLD_START_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); "
    "from braidshear.cli import main; sys.exit(main(sys.argv[2:]))"
)

END_TO_END_UNITS = {"run_s": "s", "case_s.p50": "s", "peak_rss_mb": "MiB", "setup_s": "s"}
PER_LAYER_UNITS = {
    "braid.compile_s": "s",
    "kinetic.detect_s": "s",
    "kinetic.self_s": "s",
    "kinetic.events": "count",
    "kinetic.event_yield": "ratio",
    "kinetic.detect_attempts": "count",
    "kinetic.retries": "count",
    "roots.s": "s",
    "roots.calls": "count",
    "geometry.delaunay_s": "s",
    "geometry.delaunay_calls": "count",
    "geometry.delaunay_per_event": "ratio",
    "algebra.gcd_detect_s": "s",
    "algebra.gcd_detect_calls": "count",
    "algebra.gcd_label_s": "s",
    "algebra.gcd_label_calls": "count",
    "coordinates.labels_s": "s",
    "coordinates.flips_applied": "count",
    "coordinates.recheck_ratio": "ratio",
    "coordinates.label_terms_max": "count",
    "coordinates.label_degree_max": "count",
    "coordinates.equal_s": "s",
    "cli.render_s": "s",
    "cli.output_bytes": "bytes",
    "trace.overhead_s": "s",
    "failed_frac": "ratio",
}
MAX_METRICS = ("coordinates.label_terms_max", "coordinates.label_degree_max")


class BenchError(Exception):
    """The benchmark cannot run here (no program, bad arguments)."""


def load_cli():
    """Import ``braidshear.cli`` from this checkout's ``src``, never from
    an installed copy."""
    if not (SRC / "braidshear" / "cli.py").is_file():
        raise BenchError(f"no braidshear sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import braidshear.cli

    if Path(braidshear.cli.__file__).resolve().parent != SRC / "braidshear":
        raise BenchError(f"braidshear imported from {braidshear.cli.__file__}, not {SRC}")
    return braidshear.cli


def sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def call_cli(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def case_argv(case):
    return [case["kind"], "--n", str(case["n"]), "--system", case["system"], *case["words"]]


def check_answer(case, code, stdout):
    """None when the output is right, else the reason it is wrong."""
    if case["kind"] == "equal":
        a, b = (workloads.letters(w) for w in case["words"])
        if workloads.isotopy_move(a, b) is not None and (code, stdout) != (0, "EQUAL\n"):
            return f"isotopic pair gave exit {code}: {stdout.strip()!r}"
    if code != case["exit"]:
        return f"exit {code}, expected {case['exit']}"
    if sha256(stdout) != case["stdout_sha256"]:
        return "output differs from the pinned answer"
    return None


def run_case(cli, case):
    """Time one CLI call; returns (seconds, failure or None, stdout)."""
    start = time.perf_counter()
    try:
        code, stdout, _ = call_cli(cli, case_argv(case))
    except Exception as exc:  # a crash is a failed case, not a failed run
        return time.perf_counter() - start, f"{type(exc).__name__}: {exc}", ""
    elapsed = time.perf_counter() - start
    return elapsed, check_answer(case, code, stdout), stdout


def run_passes(cli, cases, seconds, tracer=None, after_pass=None):
    """Closed loop over the case list until ``seconds`` have elapsed (at
    least one pass).  Returns one record per pass."""
    passes = []
    started = time.perf_counter()
    while True:
        record = {"seconds": 0.0, "cases": [], "spans": None}
        first_span = len(tracer.spans) if tracer else 0
        isolate_before = tracer.isolate_calls if tracer else 0
        pass_start = time.perf_counter()
        for index, case in enumerate(cases):
            if tracer:
                tracer.case = index
            elapsed, failure, stdout = run_case(cli, case)
            record["cases"].append(
                {"case": index, "seconds": elapsed, "failure": failure, "stdout": stdout}
            )
        record["seconds"] = time.perf_counter() - pass_start
        if tracer:
            record["spans"] = (first_span, len(tracer.spans))
            record["isolate_calls"] = tracer.isolate_calls - isolate_before
        passes.append(record)
        if after_pass:
            after_pass()
        if time.perf_counter() - started >= seconds:
            return passes


class ColdStarts:
    """Fresh interpreters that import the CLI and serve SETUP_ARGV.  The
    first one fills the bytecode and file caches and is not timed; the run
    spreads the others between its passes, so that their median spans the
    same stretch of time as the passes."""

    def __init__(self, expected_sha):
        self.expected_sha = expected_sha
        self.started = 0
        self.times = []
        self.failures = []

    def __call__(self):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", COLD_START_CODE, str(SRC), *SETUP_ARGV],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=120,
        )
        elapsed = time.perf_counter() - start
        if proc.returncode != 0 or sha256(proc.stdout) != self.expected_sha:
            self.failures.append(f"cold start exit {proc.returncode}: {proc.stderr.strip()[:200]}")
        if self.started:
            self.times.append(elapsed)
        self.started += 1


def case_failures(passes):
    return [
        (record["case"], record["failure"])
        for p in passes
        for record in p["cases"]
        if record["failure"]
    ]


def end_to_end_metrics(passes, setup_times):
    case_times = [r["seconds"] for p in passes for r in p["cases"]]
    return {
        "run_s": statistics.mean(p["seconds"] for p in passes),
        "case_s.p50": statistics.median(case_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": statistics.median(setup_times),
    }


def per_layer_metrics(tracer, traced, untraced, failed_frac):
    import tracer as tracer_module

    rows = []
    for p in traced:
        lo, hi = p["spans"]
        row = tracer_module.layer_totals(tracer.spans, lo, hi)
        events = row["kinetic.events"]
        row["kinetic.event_yield"] = events / p["isolate_calls"] if p["isolate_calls"] else 0.0
        row["geometry.delaunay_per_event"] = (
            row["geometry.delaunay_calls"] / events if events else 0.0
        )
        row["coordinates.recheck_ratio"] = (
            (row["coordinates.flips_applied"] - events) / events if events else 0.0
        )
        row["cli.output_bytes"] = sum(len(r["stdout"].encode("utf-8")) for r in p["cases"])
        rows.append(row)
    metrics = {}
    for name in rows[0]:
        values = [row[name] for row in rows]
        metrics[name] = max(values) if name in MAX_METRICS else statistics.median(values)
    # traced run_s minus untraced run_s, both as end_to_end_metrics computes run_s
    metrics["trace.overhead_s"] = statistics.mean(p["seconds"] for p in traced) - statistics.mean(
        p["seconds"] for p in untraced
    )
    metrics["failed_frac"] = failed_frac
    return metrics


def per_case_counts(tracer, traced, cases):
    """Events and largest label (terms) per case, from the first traced pass."""
    lo, hi = traced[0]["spans"]
    counts = {i: {"events": 0, "label_terms_max": 0} for i in range(len(cases))}
    for span in tracer.spans[lo:hi]:
        if span.name == "kinetic.detect":
            counts[span.case]["events"] += span.info.get("events", 0)
        elif span.name == "coordinates.flip":
            counts[span.case]["label_terms_max"] = max(
                counts[span.case]["label_terms_max"], span.info.get("terms", 0)
            )
    return [dict(words=cases[i]["words"], **counts[i]) for i in counts]


def flips_failures(cli, cases):
    """CLI ``flips`` output of every invariant case against its pin."""
    failures = []
    for index, case in enumerate(cases):
        if case["kind"] != "invariant":
            continue
        try:
            code, stdout, _ = call_cli(cli, ["flips", "--n", str(case["n"]), case["words"][0]])
        except Exception as exc:  # counted as a failed check
            failures.append((index, f"flips raised {type(exc).__name__}: {exc}"))
            continue
        if code != 0 or sha256(stdout) != case["flips_sha256"]:
            failures.append((index, f"flips output differs from the pin (exit {code})"))
    return failures


def detector_failures(case):
    """The sturm and bisect detectors must give the same flips (stage,
    edge, quad) on every word of ``case``."""
    from braidshear.braid import SlotConfig, compile_motion, initial_triangulation, parse_braid
    from braidshear.kinetic import detect_flips

    cfg = SlotConfig(case["n"])
    tri0, _ = initial_triangulation(cfg)
    for text in case["words"]:
        motion, _ = compile_motion(parse_braid(text, n=case["n"]), cfg)
        try:
            found = [
                [(e.stage, e.edge, e.quad) for e in detect_flips(motion, tri0, detector=d)]
                for d in ("sturm", "bisect")
            ]
        except Exception as exc:  # counted as a failed check
            return [(None, f"detector raised {type(exc).__name__} on {text!r}: {exc}")]
        if found[0] != found[1]:
            return [(None, f"detectors disagree on {text!r}")]
    return []


def git_commit():
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def source_digest():
    digest = hashlib.sha256()
    for path in sorted((SRC / "braidshear").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def metadata(args, cases, pins):
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "pins_source": pins["source"],
        "cases": [
            {
                "stratum": c["stratum"],
                "kind": c["kind"],
                "n": c["n"],
                "system": c["system"],
                "words": c["words"],
                "pinned_events": c.get("events"),
                "pinned_label_terms_max": c.get("label_terms_max"),
            }
            for c in cases
        ],
    }


def measure(cli, cases, seconds, trace, pins, workload):
    """One run over ``cases``.  Returns (metrics, failures, attempted, extra)."""
    call_cli(cli, SETUP_ARGV)  # lazy set-up that every CLI user pays once per process
    failures, extra = [], {}
    if not trace:
        cold = ColdStarts(pins["setup_sha256"])
        cold()
        cold()
        passes = run_passes(cli, cases, seconds, after_pass=cold)
        failures = case_failures(passes) + [(None, f) for f in cold.failures]
        attempted = sum(len(p["cases"]) for p in passes) + cold.started
        metrics = end_to_end_metrics(passes, cold.times)
        extra["setup_s"] = cold.times
    else:
        import tracer as tracer_module

        before = tracer_module.snapshot_targets()
        untraced = run_passes(cli, cases, seconds / 2)
        tracer = tracer_module.Tracer()
        with tracer.installed():
            traced = run_passes(cli, cases, seconds / 2, tracer)
        if tracer_module.snapshot_targets() != before:
            failures.append((None, "tracing left wrapped attributes behind"))
        reference = {r["case"]: r["stdout"] for r in untraced[0]["cases"]}
        for p in traced:
            for r in p["cases"]:
                if r["stdout"] != reference[r["case"]]:
                    failures.append((r["case"], "traced answer differs from untraced answer"))
        failures += case_failures(untraced) + case_failures(traced)
        failures += flips_failures(cli, cases)
        failures += detector_failures(workloads.smallest_case(workload, pins))
        checks = sum(c["kind"] == "invariant" for c in cases) + 1
        attempted = sum(len(p["cases"]) for p in untraced + traced) + checks
        metrics = per_layer_metrics(tracer, traced, untraced, len(failures) / attempted)
        extra["case_counts"] = per_case_counts(tracer, traced, cases)
        extra["spans"] = [s.to_json(i) for i, s in enumerate(tracer.spans)]
        passes = untraced + traced
    extra["passes"] = [
        {
            "traced": p["spans"] is not None,
            "seconds": p["seconds"],
            "cases": [{k: r[k] for k in ("case", "seconds", "failure")} for r in p["cases"]],
        }
        for p in passes
    ]
    return metrics, failures, attempted, extra


def result_line(metrics, units, failures, attempted):
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }


def write_record(name, record):
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / name, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)


def run(args):
    if args.workload not in workloads.STRATA:
        raise BenchError(f"unknown workload {args.workload!r}; choose from {sorted(workloads.STRATA)}")
    if args.seconds <= 0 or args.trace not in (0, 1):
        raise BenchError("--seconds must be positive and --trace 0 or 1")
    cli = load_cli()
    pins = workloads.load_pins()
    cases = workloads.select_cases(args.workload, args.seed, pins)
    meta = metadata(args, cases, pins)
    print(json.dumps({"meta": meta}), flush=True)
    metrics, failures, attempted, extra = measure(
        cli, cases, args.seconds, args.trace, pins, args.workload
    )
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    result = result_line(metrics, units, failures, attempted)
    write_record(
        f"{args.workload}-seed{args.seed}-trace{args.trace}.json",
        {"meta": meta, "result": result, "failures": failures, **extra},
    )
    for case, reason in failures:
        print(f"FAILED case {case}: {reason}", file=sys.stderr)
    print(json.dumps(result), flush=True)


def smoke():
    """Smallest case of every workload, untraced then traced: every metric
    named in BENCHMARK.json is emitted, the wrappers are restored and the
    answers agree (the traced run checks the last two itself)."""
    cli = load_cli()
    pins = workloads.load_pins()
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        declared = json.load(handle)
    problems = []
    for workload in workloads.STRATA:
        case = workloads.smallest_case(workload, pins)
        case["stratum"] = "smallest"
        for trace, key, units in ((0, "end_to_end", END_TO_END_UNITS), (1, "per_layer", PER_LAYER_UNITS)):
            metrics, failures, attempted, _ = measure(cli, [case], 0.0, trace, pins, workload)
            result = result_line(metrics, units, failures, attempted)
            missing = {m["name"] for m in declared[key]} - set(result["metrics"])
            problems += [f"{workload} trace {trace}: {reason}" for _, reason in failures]
            if missing:
                problems.append(f"{workload} trace {trace}: metrics not emitted: {sorted(missing)}")
            print(f"{workload} trace {trace}: {attempted} attempted, {len(failures)} failed", flush=True)
    for problem in problems:
        print(f"SMOKE FAILURE {problem}", file=sys.stderr)
    return 1 if problems else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--smoke", action="store_true", help="fast self-check of the benchmark")
    args = parser.parse_args(argv)
    os.environ.pop("BRAIDSHEAR_DETECTOR", None)
    os.environ.pop("BRAIDSHEAR_MAX_RETRIES", None)
    try:
        if args.smoke:
            return smoke()
        if args.workload is None:
            raise BenchError("--workload is required")
        run(args)
    except BenchError as exc:
        print(f"braidbench: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
