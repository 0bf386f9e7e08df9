"""Benchmark entry point: one workload, one seed, one JSON line of metrics.

    python3 halobench/run.py --workload halo-L4-1r --seed 1 --seconds 35 --trace 0

With ``--trace 0`` it times ``runner.run_benchmark`` calls, the path
``halolab bench`` takes, alternating blocking and nonblocking, and prints
the end-to-end metrics.  With ``--trace 1`` it alternates traced and
untraced calls and prints the per-layer metrics, and it writes the spans
of the first traced call of each strategy to ``halobench/out/``.  Both
modes run the independent checks of ``checks.py``.  The last line of
standard output is the result; a readable summary goes to standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import numpy as np  # noqa: E402

from halolab.runner import run_benchmark  # noqa: E402

from halobench.checks import call_ok, check_halos, check_model_floor, check_physics  # noqa: E402
from halobench.layers import traced_sample, write_chrome_trace  # noqa: E402
from halobench.stats import median, min_samples, tail_percentile  # noqa: E402
from halobench.workloads import M, STRATEGIES, WORKLOADS  # noqa: E402

# every run takes at least this many samples per strategy, so the 90th
# percentile always has ten samples beyond it
MIN_ROUNDS = min_samples(90)
MIN_TRACE_ROUNDS = 10


class Ledger:
    """Operations attempted and the names of those that failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = []

    def record(self, name, ok):
        self.attempted += 1
        if not ok:
            self.failed.append(name)
            print(f"FAILED: {name}", file=sys.stderr)

    def result(self, metrics):
        return {
            "correct": not self.failed,
            "attempted": self.attempted,
            "failed": len(self.failed),
            "metrics": metrics,
        }


def timed_call(wl, strategy, seed, ledger, **overrides):
    """One run_benchmark call, checked; returns (record, wall seconds)."""
    t0 = perf_counter()
    record, _ = run_benchmark(wl.config(strategy, seed, **overrides))
    wall = perf_counter() - t0
    ledger.record(f"{strategy} call: analytic messages and bytes", call_ok(wl, strategy, record))
    return record, wall


def setup_probe(wl, strategy, seed, ledger):
    """Wall time of a one-step call outside its timed step: configuration,
    fabric, rank threads, fields and HaloBuffers up to the first step (and
    the thread joins after it)."""
    record, wall = timed_call(wl, strategy, seed, ledger, iterations=1, warmup=0)
    return wall - record.step_times_s[0]


def host_ref_s():
    """A fixed pure-Python loop; its time records the host's speed."""
    t0 = perf_counter()
    acc = 0
    for i in range(20000):
        acc += i * i
    return perf_counter() - t0


def run_checks(wl, seed, ledger):
    for name, ok in check_halos(wl, seed):
        ledger.record(name, ok)
    if wl.model is not None:
        for name, ok in check_model_floor(wl, seed):
            ledger.record(name, ok)
    if wl.physics == "full":
        for name, ok in check_physics(wl, seed):
            ledger.record(name, ok)


def measure(wl, seed, seconds):
    """End-to-end metrics from alternating untraced benchmark calls."""
    ledger = Ledger()
    samples = {s: [] for s in STRATEGIES}
    setup = []
    host = []
    rounds = 0
    deadline = perf_counter() + seconds
    while rounds < MIN_ROUNDS or perf_counter() < deadline:
        for strategy in STRATEGIES:
            record, _ = timed_call(wl, strategy, seed, ledger)
            samples[strategy].append(record.step_times_s[0] / record.iterations)
        # one set-up probe per round, so the median spans the whole run
        setup.append(setup_probe(wl, STRATEGIES[rounds % 2], seed, ledger))
        host.append(host_ref_s())
        rounds += 1
    peak_rss_MB = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    run_checks(wl, seed, ledger)

    metrics = {}
    notes = [f"{rounds} rounds of {wl.iterations} step(s) per strategy in {seconds} s",
             f"host.ref_us median {median(host) * 1e6:.1f}"]
    for strategy, xs in samples.items():
        metrics[f"{strategy}.step_us"] = (median(xs) * 1e6, "us")
        # printed, not listed: it spreads far beyond any bound between runs
        notes.append(f"{strategy}.step_us.p90 {tail_percentile(xs, 90) * 1e6:.1f}")
    metrics["setup_s"] = (median(setup), "s")
    metrics["peak_rss_MB"] = (peak_rss_MB, "MB")
    return ledger, metrics, notes


def trace(wl, seed, seconds):
    """Per-layer metrics from traced calls, alternated with untraced ones."""
    ledger = Ledger()
    traced = {s: [] for s in STRATEGIES}
    plain = {s: [] for s in STRATEGIES}
    host = []
    rounds = 0
    deadline = perf_counter() + seconds
    while rounds < MIN_TRACE_ROUNDS or perf_counter() < deadline:
        for strategy in STRATEGIES:
            sample = traced_sample(wl, strategy, seed)
            ok = (sample.per_exchange("msgs") == len(wl.message_bytes(strategy))
                  and sample.per_exchange("bytes") == wl.halo_bytes())
            ledger.record(f"{strategy} traced call: analytic messages and bytes", ok)
            traced[strategy].append(sample)
            record, _ = timed_call(wl, strategy, seed, ledger)
            plain[strategy].append(record.step_times_s[0] / record.iterations)
        host.append(host_ref_s())
        rounds += 1
    run_checks(wl, seed, ledger)

    def med(samples, value):
        return median([value(x) for x in samples])

    metrics = {}
    lattice_bytes = 2 * wl.L ** 3 * M * 8  # one read and one write per value, computed
    for strategy in STRATEGIES:
        xs = traced[strategy]
        us = {c: med(xs, lambda x, c=c: x.per_step(c) * 1e6)
              for c in ("exchange", "start", "end", "post", "wait", "excess")}
        metrics[f"{strategy}.halo.exchange_us"] = (us["exchange"], "us")
        metrics[f"{strategy}.halo.self_us"] = (
            med(xs, lambda x: (x.per_step("exchange") - x.per_step("post")
                               - x.per_step("wait")) * 1e6), "us")
        if strategy == "nonblocking":
            metrics["nonblocking.halo.start_us"] = (us["start"], "us")
            metrics["nonblocking.halo.end_us"] = (us["end"], "us")
        metrics[f"{strategy}.transport.post_us"] = (us["post"], "us")
        metrics[f"{strategy}.transport.wait_us"] = (us["wait"], "us")
        for count in ("calls", "msgs", "bytes"):
            metrics[f"{strategy}.transport.{count}"] = (xs[0].per_exchange(count), "count")
        metrics[f"{strategy}.model_us"] = (wl.model_cost_s(strategy) * 1e6, "us")
        metrics[f"{strategy}.host_excess_us"] = (us["excess"], "us")
        if wl.nranks > 1:  # one rank has no skew; only the reference workloads report it
            metrics[f"{strategy}.runner.skew_us"] = (med(xs, lambda x: x.skew_s() * 1e6), "us")
        metrics[f"{strategy}.trace_overhead_us"] = (
            (med(xs, lambda x: x.step_s) - median(plain[strategy])) * 1e6, "us")
    both = traced["blocking"] + traced["nonblocking"]
    for kernel in ("stream", "collide"):
        metrics[f"lattice.{kernel}_us"] = (med(both, lambda x: x.per_step(kernel) * 1e6), "us")
        rates = [lattice_bytes / x.per_step(kernel) / 1e9 if x.per_step(kernel) else 0.0
                 for x in both]
        metrics[f"lattice.{kernel}_GBps"] = (median(rates), "GB/s")
    metrics["overlap.work_us"] = (med(both, lambda x: x.per_step("work") * 1e6), "us")
    metrics["host.ref_us"] = (median(host) * 1e6, "us")

    path = ROOT / "halobench" / "out" / f"trace-{wl.name}-seed{seed}.json"
    write_chrome_trace(path, [traced[s][0] for s in STRATEGIES])
    notes = [f"{rounds} rounds; trace written to {path.relative_to(ROOT)}"]
    return ledger, metrics, notes


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    wl = WORKLOADS[args.workload]
    nproc = len(os.sched_getaffinity(0))
    if wl.nranks > nproc:
        print(f"warning: {wl.nranks} rank threads on {nproc} cores", file=sys.stderr)

    run = trace if args.trace else measure
    ledger, metrics, notes = run(wl, args.seed, args.seconds)

    print(f"{wl.name} seed={args.seed} python {platform.python_version()} "
          f"numpy {np.__version__} nproc {nproc}", file=sys.stderr)
    for line in notes:
        print(f"  {line}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:14.4f} {unit}", file=sys.stderr)
    print(f"  attempted {ledger.attempted}, failed {len(ledger.failed)}", file=sys.stderr)
    print(json.dumps(ledger.result(
        {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}
    )))
    return 0


if __name__ == "__main__":
    sys.exit(main())
