"""The workload process: set-up, then a closed loop of checked CLI requests.

    python3 perfbench/worker.py setup --workload W --seed S --dir D
    python3 perfbench/worker.py run --workload W --seed S --dir D \\
        --seconds N --trace 0|1 --expected FILE --result FILE [--spans FILE]

`setup` imports pfmatch and writes the workload's input files into D;
`run.py` times it from outside, in fresh processes.  `run` does the same
set-up, then sends one request at a time through
`pfmatch.cli.main(argv + ["--json"])` in whole passes over the request
list until --seconds is spent, checks every response against the
expected answers, runs the workload's known-defect probes once, and
writes what it measured to --result as JSON.  After every untraced
request, outside its timing, it times the reference task of
`hostspeed.py`, which gauges the host's speed.  With --trace 1 it
alternates untraced and traced passes.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import signal
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import pfmatch.cli  # noqa: E402  (the program under test, from this checkout)

from oracle import canonical_cycle  # noqa: E402
from hostspeed import reference_ms  # noqa: E402
from workloads import WORKLOADS, build, probes  # noqa: E402

#: Seconds one request may take before it counts as failed.
DEADLINE_S = 6.0
#: An untraced run holds at least this many requests.
MIN_REQUESTS = 100
#: A run stops starting passes after this long, whatever else holds.
HARD_STOP_S = 120.0


class DeadlineExceeded(BaseException):
    """Raised by SIGALRM inside a request that overran DEADLINE_S."""


def _on_alarm(signum, frame):
    raise DeadlineExceeded


def setup(workload: str, seed: int, directory: str):
    requests = build(workload, seed)
    os.makedirs(directory, exist_ok=True)
    for request in requests:
        for name, text in request.files.items():
            with open(os.path.join(directory, name), "w", encoding="utf-8") as out:
                out.write(text)
    return requests


def _argv(request, directory: str) -> list[str]:
    return [os.path.join(directory, a[1:]) if a.startswith("@") else a for a in request.argv]


def call(argv: list[str]) -> tuple[int | None, str, str | None]:
    """(exit code, stdout, failure) of one in-process CLI request."""
    out = io.StringIO()
    try:
        try:
            signal.setitimer(signal.ITIMER_REAL, DEADLINE_S)
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = pfmatch.cli.main(argv + ["--json"])
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except DeadlineExceeded:
        return None, "", f"deadline: no answer within {DEADLINE_S:g} s"
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # a traceback is a failed request, not a crash
        return None, "", f"traceback: {type(exc).__name__}: {exc}"[:200]
    return code, out.getvalue(), None


def _short(value) -> str:
    text = json.dumps(value)
    return text if len(text) <= 60 else text[:57] + "..."


def check(expected: dict, code: int | None, stdout: str) -> str | None:
    """None if the response is right, else how it is wrong."""
    if code != expected["exit"]:
        return f"exit {code}, expected {expected['exit']}"
    fields = [key for key in expected if key != "exit"]
    if not fields:
        return None
    try:
        report = json.loads(stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        return "no JSON report"
    for key in fields:
        got = report.get(key)
        if key == "violations" and isinstance(got, list):
            got = sorted(list(canonical_cycle(c)) for c in got)
        if got != expected[key]:
            return f"wrong {key}: got {_short(got)}, expected {_short(expected[key])}"
    return None


def run(args) -> dict:
    requests = setup(args.workload, args.seed, args.dir)
    with open(args.expected, encoding="utf-8") as handle:
        expected = json.load(handle)
    signal.signal(signal.SIGALRM, _on_alarm)
    tracer = None
    if args.trace:
        from layertrace import Tracer

        tracer = Tracer()

    latencies: list[float] = []
    reference_times: list[float] = []  # reference_times[i] was timed right after latencies[i]
    reference_ms()  # untimed: the first call pays for cold caches
    passes: list[dict] = []
    failures: dict[str, list] = {}
    attempted = correct = 0
    started = time.perf_counter()
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        gc.collect()
        if traced:
            first_span = tracer.begin_pass()
            tracer.install()
        seconds = 0.0  # requests and their checks; reference tasks excluded
        for index, request in enumerate(requests):
            argv = _argv(request, args.dir)
            if traced:
                tracer.begin_request(len(passes) * len(requests) + index)
            t0 = time.perf_counter()
            code, stdout, failure = call(argv)
            latency = time.perf_counter() - t0
            if not traced:
                latencies.append(latency * 1000.0)
                reference_times.append(reference_ms())
            t1 = time.perf_counter()
            failure = failure or check(expected[request.name], code, stdout)
            seconds += latency + time.perf_counter() - t1
            attempted += 1
            if failure:
                failures.setdefault(request.name, [0, failure])[0] += 1
            else:
                correct += 1
        record = {"traced": traced, "seconds": seconds}
        if traced:
            tracer.uninstall()
            record["layers"] = tracer.pass_metrics(first_span)
            if first_span:  # keep the spans of the first traced pass only
                del tracer.spans[first_span:]
        passes.append(record)
        elapsed = time.perf_counter() - started
        enough = (len(passes) >= 2) if tracer else (len(latencies) >= MIN_REQUESTS)
        if (enough and elapsed + seconds > args.seconds) or elapsed > HARD_STOP_S:
            break
    peak_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    probe_results = []
    for request in probes(args.workload):
        t0 = time.perf_counter()
        code, stdout, failure = call(_argv(request, args.dir))
        ms = (time.perf_counter() - t0) * 1000.0
        failure = failure or check(expected[request.name], code, stdout)
        probe_results.append({"name": request.name, "failure": failure, "ms": ms})

    result = {
        "attempted": attempted,
        "correct": correct,
        "failures": failures,
        "pass_size": len(requests),
        "passes": passes,
        "latencies_ms": latencies,
        "reference_ms": reference_times,
        "peak_rss_kib": peak_rss_kib,
        "probes": probe_results,
    }
    if tracer is not None:
        untraced = [p["seconds"] for p in passes if not p["traced"]]
        traced = [p["seconds"] for p in passes if p["traced"]]
        base = statistics.median(untraced)
        result["overhead_share"] = (statistics.median(traced) - base) / base
        if args.spans:
            tracer.write(args.spans)
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=["setup", "run"])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--expected")
    parser.add_argument("--result")
    parser.add_argument("--spans")
    args = parser.parse_args(argv)
    if args.mode == "setup":
        setup(args.workload, args.seed, args.dir)
        return 0
    result = run(args)
    with open(args.result, "w", encoding="utf-8") as out:
        json.dump(result, out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
