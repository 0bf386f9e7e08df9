"""Tests of the benchmark's own statistics, wrapper, oracles and references.

    python3 -m pytest -q halobench/tests
"""

import json

import numpy as np
import pytest

from halolab import lattice
from halolab.halo import HaloBuffers, exchange
from halolab.overlap import synthetic_workload
from halolab.runner import run_ranks
from halolab.topology import CartesianTopology

from halobench.checks import (
    bgk_step,
    check_halos,
    check_model_floor,
    check_physics,
    halo_mismatches,
    mass,
    momentum,
    synthetic_checksum,
)
from halobench.layers import RankTrace, TimingEndpoint, traced_sample, write_chrome_trace
from halobench.stats import min_samples, samples_beyond, tail_percentile
from halobench.workloads import M, STRATEGIES, WORKLOADS, Workload

SMALL = Workload("small", (2, 1, 1), 3, iterations=2, warmup=1)


def test_tail_percentile_needs_ten_samples_beyond():
    assert samples_beyond(100, 90) == 10
    assert samples_beyond(99, 90) == 9
    assert min_samples(90) == 100
    assert tail_percentile(list(range(99)), 90) is None
    assert tail_percentile(list(range(100))[::-1], 90) == 89
    assert tail_percentile(list(range(250)), 90) == 224
    assert tail_percentile([], 90) is None


def _exchanged(strategy, wrap):
    topo = CartesianTopology(SMALL.proc_dims)
    local = (SMALL.L,) * 3

    def body(ctx):
        field = SMALL.make_field(7, ctx.rank)
        tr = RankTrace(ctx.rank, None)
        ep = TimingEndpoint(ctx.endpoint, tr) if wrap else ctx.endpoint
        exchange(field, topo, HaloBuffers(topo, ctx.rank, local, M, ep), strategy)
        return field.data, tr

    return run_ranks(SMALL.nranks, body)


@pytest.mark.parametrize("strategy,posts,waits", [("blocking", 12, 3), ("nonblocking", 52, 52)])
def test_timing_endpoint_is_transparent_and_counts_calls(strategy, posts, waits):
    plain = _exchanged(strategy, wrap=False)
    wrapped = _exchanged(strategy, wrap=True)
    for (a, _), (b, tr) in zip(plain, wrapped):
        assert np.array_equal(a, b)
        names = [name for name, _, _ in tr.spans]
        assert names.count("post") == posts
        assert names.count("wait") == waits
        assert tr.calls == posts + waits
        assert tr.msgs == posts // 2
        assert tr.bytes == SMALL.halo_bytes()


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_halo_oracle_flags_one_corrupted_value(strategy):
    datas = [d for d, _ in _exchanged(strategy, wrap=False)]
    assert halo_mismatches(datas, SMALL.proc_dims) == 0
    datas[1][0, 2, 1, 5] += 1.0
    assert halo_mismatches(datas, SMALL.proc_dims) == 1


def test_bgk_reference_conserves_mass_and_momentum():
    vs = lattice.d3q19()
    f0 = lattice.random_state((6, 5, 4), vs, np.random.default_rng(3)).interior().copy()
    f = f0
    for _ in range(10):
        f = bgk_step(f, 0.8)
    assert abs(mass(f) - mass(f0)) <= 1e-12 * mass(f0)
    assert np.abs(momentum(f) - momentum(f0)).max() <= 1e-12 * mass(f0)
    assert not np.array_equal(f, f0)


def test_synthetic_checksum_closed_form():
    field = SMALL.make_field(3, 0)
    for n in (0, 1, 57):
        got = synthetic_workload(field, n)
        assert got == pytest.approx(synthetic_checksum(field.interior(), n), rel=1e-12)


@pytest.mark.parametrize("L", range(1, 7))
def test_analytic_messages_cover_the_halo_shell(L):
    wl = Workload("w", (1, 1, 1), L)
    assert len(wl.message_bytes("blocking")) == 6
    assert len(wl.message_bytes("nonblocking")) == 26
    shell = ((L + 2) ** 3 - L ** 3) * 8 * M
    for strategy in STRATEGIES:
        assert sum(wl.message_bytes(strategy)) == wl.halo_bytes() == shell


@pytest.mark.parametrize("wl", [
    SMALL,
    Workload("phys", (2, 1, 1), 4, physics="full"),
    Workload("model", (1, 1, 1), 3, model=(20.0, 1000.0), intensity=5),
])
def test_checks_pass_on_the_program(wl):
    results = list(check_halos(wl, 11))
    if wl.model is not None:
        results += list(check_model_floor(wl, 11))
    if wl.physics == "full":
        results += list(check_physics(wl, 11, steps=3))
    assert results and all(ok for _, ok in results), results


class Overcharged(Workload):
    """Expects ten times the modelled cost that its exchanges pay."""

    def model_cost_s(self, strategy):
        return 10 * super().model_cost_s(strategy)


def test_model_floor_flags_an_exchange_faster_than_its_model():
    wl = Overcharged("o", (1, 1, 1), 3, model=(100.0, 1000.0))
    results = list(check_model_floor(wl, 11))
    assert len(results) == 2 and not any(ok for _, ok in results), results


def test_workloads_start_at_most_two_rank_threads():
    assert max(wl.nranks for wl in WORKLOADS.values()) <= 2


def test_traced_sample_writes_one_track_per_rank(tmp_path):
    wl = Workload("t", (2, 1, 1), 3, physics="full", iterations=2, warmup=1)
    samples = [traced_sample(wl, s, 5) for s in STRATEGIES]
    for sample in samples:
        assert sample.per_exchange("msgs") == len(wl.message_bytes(sample.strategy))
        assert sample.per_exchange("bytes") == wl.halo_bytes()
        assert all(len(tr.step_ends) == wl.iterations for tr in sample.ranks)
    path = tmp_path / "trace.json"
    write_chrome_trace(path, samples)
    events = json.loads(path.read_text())["traceEvents"]
    spans = [e for e in events if e["ph"] == "X"]
    assert {e["tid"] for e in spans} == {0, 1}
    assert {e["pid"] for e in spans} == {1, 2}
    assert {e["name"] for e in spans} == {
        "exchange", "start", "end", "post", "wait", "stream", "collide"}
    assert all(e["dur"] >= 0 for e in spans)


def test_traced_overlap_sample_times_the_work_inside_the_exchange():
    wl = Workload("o", (1, 1, 1), 3, iterations=2, warmup=1, model=(20.0, 1000.0), intensity=5)
    sample = traced_sample(wl, "nonblocking", 5)
    (tr,) = sample.ranks
    assert min(tr.spans, key=lambda span: span[1])[0] == "start"
    assert max(tr.spans, key=lambda span: span[2])[0] == "end"
    assert "work" in {name for name, _, _ in tr.spans}
    assert tr.model_s == pytest.approx(wl.iterations * wl.model_cost_s("nonblocking"))
    # the exchange clock leaves out the overlapped work
    assert sample.per_step("exchange") == pytest.approx(
        sample.per_step("start") + sample.per_step("end"))
