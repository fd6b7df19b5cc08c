"""pfmatch benchmark: one workload, one run, checked answers, one JSON line.

    python3 perfbench/run.py --workload tree-formulas --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  The run

1. computes every request's expected answer with `oracle.py`, which
   shares no code with pfmatch;
2. times the workload's set-up (interpreter start, `import pfmatch`,
   generating and writing the inputs) in SETUP_REPEATS fresh processes
   and keeps the median as setup_s;
3. starts one fresh workload process (`worker.py run`) that sends the
   requests in a closed loop for --seconds, checks each response, times
   the reference task of `hostspeed.py` right after each, and then runs
   the known-defect probes;
4. scales every end-to-end timing to a host of fixed speed, by the
   reference task timed next to it (`hostspeed.scaled`);
5. prints a readable report and, as the last line, the result object.

With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
workload process alternates untraced and traced passes and the metrics
are the per-layer ones plus the tracing overhead.  Spans of a traced run
are written to .perfbench_out/.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

import hostspeed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SETUP_REPEATS = 9
SETUP_TIMEOUT_S = 60
RUN_TIMEOUT_S = 170


def _worker(*args: str) -> list[str]:
    return [sys.executable, os.path.join(HERE, "worker.py"), *args]


def expected_answers(requests, oracle, workloads) -> dict:
    answers = {}
    for request in requests:
        tree = request.expect.get("tree")  # ["spec", n, seed] or ["edges", n, edges]
        if tree is not None:
            kind, n, arg = tree
            tree = (n, workloads.random_tree_edges(n, arg) if kind == "spec" else arg)
        answers[request.name] = oracle.answer(request.expect, tree)
    return answers


def run_child(cmd: list[str], timeout: float) -> float:
    """Wall seconds of a child process, killed if it outlives timeout.

    Waits with a blocking wait() rather than subprocess.run(timeout=...),
    whose polling would round the time up to tens of milliseconds.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL)
    watchdog = threading.Timer(timeout, proc.kill)
    watchdog.start()
    try:
        code = proc.wait()
    finally:
        watchdog.cancel()
    elapsed = time.perf_counter() - t0
    if code:
        raise subprocess.CalledProcessError(code, cmd)
    return elapsed


def time_setups(args, work: str) -> list[tuple[float, float]]:
    """(seconds, reference ms timed right after) of each set-up."""
    hostspeed.reference_ms()  # untimed: the first call pays for cold caches
    times = []
    for k in range(SETUP_REPEATS):
        seconds = run_child(_worker("setup", "--workload", args.workload, "--seed", str(args.seed),
                                    "--dir", os.path.join(work, f"setup-{k}")), SETUP_TIMEOUT_S)
        times.append((seconds, hostspeed.reference_ms()))
    return times


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile (q a multiple of 10) of at least two values."""
    return statistics.quantiles(values, n=10)[q // 10 - 1]


def end_to_end(result: dict, setups: list[tuple[float, float]], scaled) -> dict:
    """The end-to-end metrics; scaled(time, reference ms) adjusts each timing."""
    lat = [scaled(t, ref) for t, ref in zip(result["latencies_ms"], result["reference_ms"])]
    return {
        "setup_s": (statistics.median(scaled(t, ref) for t, ref in setups), "s"),
        "throughput_rps": (result["correct"] / (sum(lat) / 1000.0), "1/s"),
        "req_p50_ms": (quantile(lat, 50), "ms"),
        "req_p90_ms": (quantile(lat, 90), "ms"),
        "peak_rss_mib": (result["peak_rss_kib"] / 1024.0, "MiB"),
    }


def per_layer(result: dict, layertrace) -> dict:
    traced = [p["layers"] for p in result["passes"] if p["traced"]]
    metrics = {}
    for name, unit, _ in layertrace.METRICS:
        if name == "trace.overhead_share":
            metrics[name] = (result["overhead_share"], unit)
        else:
            metrics[name] = (statistics.median(p[name] for p in traced), unit)
    return metrics


def report(args, result: dict, metrics: dict, setups: list[tuple[float, float]],
           raw: dict) -> None:
    passes = result["passes"]
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    print(f"requests: {result['attempted']} attempted, {result['correct']} correct, "
          f"{result['attempted'] - result['correct']} failed; {len(passes)} passes of "
          f"{result['pass_size']}, {len(result['latencies_ms'])} untraced latency samples")
    print("setup runs (s, unscaled): " + " ".join(f"{t:.4f}" for t, _ in setups))
    print("passes (s): " + " ".join(f"{p['seconds']:.3f}{'t' if p['traced'] else ''}" for p in passes))
    if raw:
        refs = result["reference_ms"] + [ref for _, ref in setups]
        print(f"reference task: {min(refs):.3f} to {max(refs):.3f} ms, median "
              f"{statistics.median(refs):.3f} ms over {len(refs)} timings; "
              f"timings scaled to {hostspeed.REFERENCE_MS} ms, unscaled values in brackets")
    for name, (value, unit) in metrics.items():
        unscaled = f"  [{raw[name][0]:.6f}]" if raw.get(name, (value,))[0] != value else ""
        print(f"  {name:45} {value:14.6f} {unit}{unscaled}")
    for name, (count, how) in sorted(result["failures"].items()):
        print(f"FAILED {name} ({count}x): {how}")
    if result["probes"]:
        print("known seed defects (probes, run once after the timed loop):")
    for probe in result["probes"]:
        verdict = "ok" if probe["failure"] is None else "FAILED: " + probe["failure"]
        print(f"  {probe['name']:34} {probe['ms']:9.1f} ms  {verdict}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "pfmatch", "cli.py")):
        print(f"error: no pfmatch sources at {SRC}; run from a pfmatch checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import layertrace
    import oracle
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}",
              file=sys.stderr)
        return 2

    if hasattr(os, "sched_setaffinity"):
        # One CPU for this process and every child it starts, so that a
        # set-up and the reference task timed after it share a CPU.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    work = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    try:
        requests = workloads.build(args.workload, args.seed) + workloads.probes(args.workload)
        expected_path = os.path.join(work, "expected.json")
        with open(expected_path, "w", encoding="utf-8") as out:
            json.dump(expected_answers(requests, oracle, workloads), out)

        setups = time_setups(args, work)
        result_path = os.path.join(work, "result.json")
        cmd = _worker("run", "--workload", args.workload, "--seed", str(args.seed),
                      "--dir", os.path.join(work, "run"), "--seconds", str(args.seconds),
                      "--trace", str(args.trace), "--expected", expected_path,
                      "--result", result_path)
        if args.trace:
            out_dir = os.path.join(ROOT, ".perfbench_out")
            os.makedirs(out_dir, exist_ok=True)
            cmd += ["--spans", os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}.tsv")]
        run_child(cmd, RUN_TIMEOUT_S)
        with open(result_path, encoding="utf-8") as handle:
            result = json.load(handle)
    except (subprocess.CalledProcessError, oracle.OracleError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # other runs may still use it
            os.rmdir(os.path.dirname(work))

    if args.trace:
        metrics, raw = per_layer(result, layertrace), {}
    else:
        metrics = end_to_end(result, setups, hostspeed.scaled)
        raw = end_to_end(result, setups, lambda t, ref: t)
    report(args, result, metrics, setups, raw)
    attempted, correct = result["attempted"], result["correct"]
    print(json.dumps({
        "correct": correct == attempted,
        "attempted": attempted,
        "failed": attempted - correct,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
