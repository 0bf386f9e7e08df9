"""The traced run: each layer timed from outside, through its public calls.

Transport is timed by ``TimingEndpoint``, which the benchmark hands to
``HaloBuffers`` in place of the rank's endpoint; halo, lattice and overlap
by wrapping their calls in the step loop below, which repeats the loop of
``runner.run_benchmark`` with the clock read between the calls.  Spans are
kept in memory and written as Chrome trace-event JSON at the end.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from time import perf_counter

from halolab import lattice
from halolab.halo import (
    HaloBuffers,
    exchange_blocking,
    exchange_nonblocking_end,
    exchange_nonblocking_start,
)
from halolab.overlap import synthetic_workload
from halolab.runner import run_ranks
from halolab.topology import CartesianTopology

from .stats import median
from .workloads import M, TAU

LAYER_CLOCKS = ("exchange", "start", "end", "post", "wait", "stream", "collide", "work", "excess")


class RankTrace:
    """One rank's layer clocks (seconds), transport counts and spans."""

    def __init__(self, rank, model):
        self.rank = rank
        self.model = model
        self.reset()

    def reset(self):
        self.busy = dict.fromkeys(LAYER_CLOCKS, 0.0)
        self.calls = self.msgs = self.bytes = 0
        self.model_s = 0.0
        self.step_ends = []
        self.spans = []

    def add(self, name, t0, t1):
        self.busy[name] += t1 - t0
        self.spans.append((name, t0, t1))


class TimingEndpoint:
    """Forwards each call to the wrapped endpoint and records its time."""

    def __init__(self, inner, trace):
        self.inner = inner
        self.trace = trace

    def post_send(self, dest, tag, payload):
        t0 = perf_counter()
        handle = self.inner.post_send(dest, tag, payload)
        tr = self.trace
        tr.add("post", t0, perf_counter())
        tr.calls += 1
        tr.msgs += 1
        tr.bytes += len(payload)
        if tr.model is not None:
            tr.model_s += tr.model.delay(len(payload))
        return handle

    def post_recv(self, source, tag, capacity):
        t0 = perf_counter()
        handle = self.inner.post_recv(source, tag, capacity)
        self.trace.add("post", t0, perf_counter())
        self.trace.calls += 1
        return handle

    def wait_all(self, handles):
        t0 = perf_counter()
        self.inner.wait_all(handles)
        self.trace.add("wait", t0, perf_counter())
        self.trace.calls += 1

    def wait_any(self, handles):
        t0 = perf_counter()
        index = self.inner.wait_any(handles)
        self.trace.add("wait", t0, perf_counter())
        self.trace.calls += 1
        return index


@dataclass
class TracedSample:
    strategy: str
    steps: int
    step_s: float  # barrier-to-barrier time per step on the slowest rank
    ranks: list  # RankTrace per rank

    def per_step(self, clock):
        """Mean over ranks of the clock's seconds per step."""
        return sum(tr.busy[clock] for tr in self.ranks) / len(self.ranks) / self.steps

    def per_exchange(self, count):
        """A rank's count per exchange; the same on every rank or None."""
        values = {getattr(tr, count) / self.steps for tr in self.ranks}
        return values.pop() if len(values) == 1 else None

    def skew_s(self):
        """Median over steps of the spread of the ranks' step-completion times."""
        ends = list(zip(*(tr.step_ends for tr in self.ranks)))
        return median([max(e) - min(e) for e in ends])


def traced_sample(wl, strategy, seed):
    """One benchmark call's worth of steps with every layer on the clock."""
    topo = CartesianTopology(wl.proc_dims)
    model = wl.transport_model()
    vs = lattice.velocity_set_for(M) if wl.physics == "full" else None
    overlapped = strategy == "nonblocking" and wl.intensity > 0

    def body(ctx):
        tr = RankTrace(ctx.rank, model)
        field = wl.make_field(seed, ctx.rank)
        spare = lattice.DistributionField(field.local_dims, M) if vs is not None else None
        buffers = HaloBuffers(topo, ctx.rank, field.local_dims, M, TimingEndpoint(ctx.endpoint, tr))

        def step(fld, spare):
            model0 = tr.model_s
            hidden = 0.0
            t0 = perf_counter()
            if strategy == "blocking":
                exchange_blocking(fld, topo, buffers)
                t1 = perf_counter()
                tr.add("exchange", t0, t1)
                window = t1 - t0
                if wl.intensity:
                    synthetic_workload(fld, wl.intensity)
                    tr.add("work", t1, perf_counter())
            else:
                token = exchange_nonblocking_start(fld, topo, buffers)
                t1 = perf_counter()
                tr.add("start", t0, t1)
                if overlapped:
                    synthetic_workload(fld, wl.intensity)
                    t2 = perf_counter()
                    tr.add("work", t1, t2)
                    hidden = t2 - t1
                    t1 = t2
                exchange_nonblocking_end(token, fld, buffers)
                t2 = perf_counter()
                tr.add("end", t1, t2)
                window = t2 - t0
                tr.busy["exchange"] += window - hidden
            # host cost the exchange adds beyond max(modelled cost, hidden work)
            tr.busy["excess"] += window - max(tr.model_s - model0, hidden)
            if vs is not None:
                t0 = perf_counter()
                spare = lattice.stream(fld, vs, out=spare)
                fld, spare = spare, fld
                t1 = perf_counter()
                tr.add("stream", t0, t1)
                lattice.collide(fld, TAU, vs)
                tr.add("collide", t1, perf_counter())
            tr.step_ends.append(perf_counter())
            return fld, spare

        for _ in range(wl.warmup):
            field, spare = step(field, spare)
        tr.reset()
        ctx.barrier.wait()
        t0 = perf_counter()
        for _ in range(wl.iterations):
            field, spare = step(field, spare)
        ctx.barrier.wait()
        return perf_counter() - t0, tr

    outs = run_ranks(wl.nranks, body, model=model)
    return TracedSample(
        strategy, wl.iterations, max(t for t, _ in outs) / wl.iterations, [tr for _, tr in outs]
    )


def write_chrome_trace(path, samples):
    """Chrome trace-event JSON: one process per sample, one track per rank."""
    events = []
    for pid, sample in enumerate(samples, start=1):
        origin = min(t0 for tr in sample.ranks for _, t0, _ in tr.spans)
        events.append({"ph": "M", "name": "process_name", "pid": pid,
                       "args": {"name": sample.strategy}})
        for tr in sample.ranks:
            events.append({"ph": "M", "name": "thread_name", "pid": pid, "tid": tr.rank,
                           "args": {"name": f"rank {tr.rank}"}})
            events.extend(
                {"name": name, "ph": "X", "pid": pid, "tid": tr.rank,
                 "ts": (t0 - origin) * 1e6, "dur": (t1 - t0) * 1e6}
                for name, t0, t1 in tr.spans
            )
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)
