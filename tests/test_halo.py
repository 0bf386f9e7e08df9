import ast
import hashlib
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from halolab import lattice, runner
from halolab.config import RunConfig
from halolab.errors import ConfigurationError, TransportDeadlock, UsageError, ZeroDensityError
from halolab.halo import (
    GROUP_CORNERS,
    GROUP_EDGES,
    GROUP_PLANES,
    STRATEGIES,
    HaloBuffers,
    blocking_message_sites,
    exchange,
    exchange_blocking,
    exchange_end,
    exchange_nonblocking_end,
    exchange_nonblocking_start,
    nonblocking_message_sites,
)
from halolab.metrics import halo_sites
from halolab.runner import run_benchmark, run_physics, run_ranks
from halolab.topology import DISPLACEMENTS, CartesianTopology, HaloNeighbour
from halolab.transport import TransportModel
from helpers import CallLog, ShuffledCompletions, halo_shell, total_mass


def random_field(dims, m, seed):
    f = lattice.DistributionField(dims, m)
    rng = np.random.default_rng(seed)
    f.interior()[...] = rng.uniform(-1.0, 1.0, size=f.interior().shape)
    return f


def single_rank_buffers(dims, m, watchdog=5.0):
    topo = CartesianTopology((1, 1, 1))
    from halolab.transport import Fabric

    fabric = Fabric(1, watchdog_seconds=watchdog)
    return topo, HaloBuffers(topo, 0, dims, m, fabric.endpoint(0))


def periodic_wrap_shell(field):
    """Independent oracle: halo values implied by single-rank periodicity."""
    expected = np.pad(field.interior(), [(1, 1)] * 3 + [(0, 0)], mode="wrap")
    expected[1:-1, 1:-1, 1:-1, :] = 0.0
    return expected


class TestMessageGeometry:
    def test_group_sizes(self):
        assert len(GROUP_PLANES) == 6
        assert len(GROUP_EDGES) == 12
        assert len(GROUP_CORNERS) == 8

    @pytest.mark.parametrize("dims", [(2, 2, 2), (2, 3, 4), (1, 1, 1), (1, 4, 2)])
    def test_site_sum_audits(self, dims):
        total = halo_sites(dims)
        assert sum(nonblocking_message_sites(dims)) == total
        assert sum(blocking_message_sites(dims)) == total

    @pytest.mark.parametrize("L", [1, 2, 3, 5])
    def test_cubic_sum_matches_closed_form(self, L):
        dims = (L, L, L)
        assert sum(nonblocking_message_sites(dims)) == 6 * L * L + 12 * L + 8

    def test_blocking_stage_sizes(self):
        lx, ly, lz = 2, 3, 4
        sites = blocking_message_sites((lx, ly, lz))
        assert sites[0] == sites[1] == ly * lz
        assert sites[2] == sites[3] == (lx + 2) * lz
        assert sites[4] == sites[5] == (lx + 2) * (ly + 2)

    @pytest.mark.parametrize("dims", [(2, 3, 4), (1, 1, 1), (5, 1, 3)])
    @pytest.mark.parametrize("m", [1, 19])
    def test_inventory_matches_sent_bytes(self, dims, m):
        _, buffers = single_rank_buffers(dims, m)
        direct, staged = nonblocking_message_sites(dims), blocking_message_sites(dims)
        messages = buffers.schedules["nonblocking"][0].messages
        assert len(messages) == 26
        for msg in messages:
            assert direct[msg.send_id] * 8 * m == len(msg.view)
        stages = [rnd.messages for rnd in buffers.schedules["blocking"]]
        assert [len(stage) for stage in stages] == [2, 2, 2]
        for stage in stages:
            for msg in stage:
                assert staged[msg.send_id - 26] * 8 * m == len(msg.view)


class TestSingleRankExchange:
    @pytest.mark.parametrize("strategy", ["blocking", "nonblocking"])
    def test_self_exchange_is_periodic_wrap(self, strategy):
        dims, m = (3, 4, 2), 7
        topo = CartesianTopology((1, 1, 1))

        def body(ctx):
            f = random_field(dims, m, 21)
            buffers = HaloBuffers(topo, 0, dims, m, ctx.endpoint)
            exchange(f, topo, buffers, strategy)
            return f

        f = run_ranks(1, body, watchdog_seconds=5.0)[0]
        assert np.array_equal(halo_shell(f), periodic_wrap_shell(f))

    @pytest.mark.parametrize("strategy", ["blocking", "nonblocking"])
    def test_isolated_open_rank_exchanges_nothing(self, strategy):
        dims, m = (2, 3, 2), 4
        topo = CartesianTopology((1, 1, 1), periodic=False)

        def body(ctx):
            f = random_field(dims, m, 22)
            buffers = HaloBuffers(topo, 0, dims, m, ctx.endpoint)
            exchange(f, topo, buffers, strategy)
            return f, buffers

        f, buffers = run_ranks(1, body, watchdog_seconds=5.0)[0]
        schedules = buffers.schedules
        assert schedules["nonblocking"][0].messages == []
        assert [rnd.messages for rnd in schedules["blocking"]] == [[], [], []]
        assert not halo_shell(f).any()
        assert (buffers.endpoint.sends, buffers.endpoint.bytes_sent) == (0, 0)

    @pytest.mark.parametrize("strategy, dims", [
        ("blocking", (3, 2, 2)),
        ("nonblocking", (3, 2, 2)),
        ("diagonal", (2, 2, 2)),
    ], ids=["blocking-mismatched-field", "nonblocking-mismatched-field", "unknown-strategy"])
    def test_bad_input_is_config_error(self, strategy, dims):
        topo, buffers = single_rank_buffers((2, 2, 2), 3)
        with pytest.raises(ConfigurationError):
            exchange(random_field(dims, 3, 0), topo, buffers, strategy)

    def test_message_and_wait_counts(self):
        dims, m = (2, 2, 2), 19
        topo = CartesianTopology((1, 1, 1))

        def body(ctx):
            f = random_field(dims, m, 1)
            ep, log = ctx.endpoint, CallLog(ctx.endpoint)
            buffers = HaloBuffers(topo, 0, dims, m, log)
            counts = []
            for strategy in STRATEGIES:
                ep.sends = ep.bytes_sent = 0
                log.calls.clear()
                exchange(f, topo, buffers, strategy)
                waits = sum(name.startswith("wait") for name in log.calls)
                counts.append((ep.sends, ep.bytes_sent, waits))
            return counts

        blocking, nonblocking = run_ranks(1, body, watchdog_seconds=5.0)[0]
        nbytes = halo_sites(dims) * m * 8
        assert blocking == (6, nbytes, 3)
        assert nonblocking == (26, nbytes, 52)

    def test_start_posts_everything_without_waiting(self):
        dims, m = (2, 3, 2), 4
        topo = CartesianTopology((1, 1, 1))

        def body(ctx):
            f = random_field(dims, m, 2)
            log = CallLog(ctx.endpoint)
            buffers = HaloBuffers(topo, 0, dims, m, log)
            token = exchange_nonblocking_start(f, topo, buffers)
            started = list(log.calls)
            exchange_nonblocking_end(token, f, buffers)
            return started, log.calls[len(started):]

        started, ended = run_ranks(1, body, watchdog_seconds=5.0)[0]
        assert started == ["post_recv"] * 26 + ["post_send"] * 26
        assert ended == ["wait_any"] * 52

    def test_blocking_posts_and_waits_once_per_stage(self):
        dims, m = (2, 3, 2), 4
        topo = CartesianTopology((1, 1, 1))

        def body(ctx):
            f, log = random_field(dims, m, 2), CallLog(ctx.endpoint)
            buffers = HaloBuffers(topo, 0, dims, m, log)
            token = exchange_blocking(f, topo, buffers)
            started = list(log.calls)
            # the null request: the end of a completed exchange posts and waits nothing
            exchange_end(None, f, buffers)
            return token, started, log.calls[len(started):]

        token, calls, ended = run_ranks(1, body, watchdog_seconds=5.0)[0]
        assert calls == ["post_recv", "post_recv", "post_send", "post_send", "wait_all"] * 3
        assert token is None and ended == []
        assert STRATEGIES["blocking"][1] is STRATEGIES["nonblocking"][1]

    def test_end_twice_is_usage_error(self):
        dims, m = (2, 2, 2), 3
        topo = CartesianTopology((1, 1, 1))

        def body(ctx):
            f = random_field(dims, m, 3)
            buffers = HaloBuffers(topo, 0, dims, m, ctx.endpoint)
            token = exchange_nonblocking_start(f, topo, buffers)
            exchange_nonblocking_end(token, f, buffers)
            with pytest.raises(UsageError):
                exchange_nonblocking_end(token, f, buffers)
            return True

        assert run_ranks(1, body, watchdog_seconds=5.0)[0]

    def test_ending_an_earlier_token_is_usage_error(self):
        dims, m = (2, 2, 2), 3
        topo = CartesianTopology((1, 1, 1))

        def body(ctx):
            f = random_field(dims, m, 5)
            buffers = HaloBuffers(topo, 0, dims, m, ctx.endpoint)
            earlier = exchange_nonblocking_start(f, topo, buffers)
            exchange_nonblocking_end(earlier, f, buffers)
            later = exchange_nonblocking_start(f, topo, buffers)
            with pytest.raises(UsageError):
                exchange_nonblocking_end(earlier, f, buffers)
            exchange_nonblocking_end(later, f, buffers)
            return f

        f = run_ranks(1, body, watchdog_seconds=5.0)[0]
        assert np.array_equal(halo_shell(f), periodic_wrap_shell(f))


    @pytest.mark.parametrize("strategy", ["blocking", "nonblocking"])
    def test_no_second_exchange_while_one_is_in_flight(self, strategy):
        # both strategies share the buffers' arenas
        dims, m = (2, 2, 2), 3
        topo = CartesianTopology((1, 1, 1))

        def body(ctx):
            f = random_field(dims, m, 4)
            buffers = HaloBuffers(topo, 0, dims, m, ctx.endpoint)
            token = exchange_nonblocking_start(f, topo, buffers)
            with pytest.raises(UsageError):
                exchange(f, topo, buffers, strategy)
            exchange_nonblocking_end(token, f, buffers)
            exchange(f, topo, buffers, strategy)
            return f

        f = run_ranks(1, body, watchdog_seconds=5.0)[0]
        assert np.array_equal(halo_shell(f), periodic_wrap_shell(f))


def equivalence_case(proc_dims, dims, m, seed, periodic=True, watchdog=10.0):
    """Return per-rank halo shells for both strategies on identical fields."""
    topo = CartesianTopology(proc_dims, periodic=periodic)

    def make_body(strategy):
        def body(ctx):
            f = random_field(dims, m, (seed, ctx.rank))
            buffers = HaloBuffers(topo, ctx.rank, dims, m, ctx.endpoint)
            exchange(f, topo, buffers, strategy)
            return halo_shell(f), ctx.endpoint
        return body

    blocking = run_ranks(topo.nranks, make_body("blocking"), watchdog_seconds=watchdog)
    nonblocking = run_ranks(topo.nranks, make_body("nonblocking"), watchdog_seconds=watchdog)
    return blocking, nonblocking


class TestStrategyEquivalence:
    @pytest.mark.parametrize("proc_dims", [(1, 1, 1), (2, 1, 1), (2, 2, 2)])
    @pytest.mark.parametrize("dims", [(2, 2, 2), (1, 1, 1), (2, 3, 4), (1, 3, 2)])
    def test_shells_bit_identical(self, proc_dims, dims):
        blocking, nonblocking = equivalence_case(proc_dims, dims, 5, seed=99)
        for (shell_b, ep_b), (shell_n, ep_n) in zip(blocking, nonblocking):
            assert np.array_equal(shell_b, shell_n)
            assert ep_b.bytes_sent == ep_n.bytes_sent

    def test_byte_totals_match_shell_size(self):
        dims = (2, 3, 4)
        blocking, nonblocking = equivalence_case((2, 2, 2), dims, 19, seed=5)
        expected = halo_sites(dims) * 19 * 8
        for (_, cb), (_, cn) in zip(blocking, nonblocking):
            assert cb.bytes_sent == expected
            assert cn.bytes_sent == expected

    def test_non_periodic_edges_skipped_and_identical(self):
        blocking, nonblocking = equivalence_case(
            (2, 2, 1), (2, 2, 3), 3, seed=7, periodic=False
        )
        for (shell_b, cb), (shell_n, cn) in zip(blocking, nonblocking):
            assert np.array_equal(shell_b, shell_n)
            assert cb.sends < 6 and cn.sends < 26

    @given(st.integers(0, 2**31))
    @settings(max_examples=10)
    def test_randomised_dims_2x1x1(self, seed):
        rng = np.random.default_rng(seed)
        dims = tuple(int(v) for v in rng.integers(1, 5, size=3))
        m = int(rng.integers(1, 27))
        blocking, nonblocking = equivalence_case((2, 1, 1), dims, m, seed=seed)
        for (shell_b, _), (shell_n, _) in zip(blocking, nonblocking):
            assert np.array_equal(shell_b, shell_n)


def global_wrap_block(glob, topo, rank, dims):
    """Independent oracle: a rank's padded block cut from the periodically
    wrapped global lattice ``glob``, interior zeroed like ``halo_shell``."""
    padded = np.pad(glob, [(1, 1)] * 3 + [(0, 0)], mode="wrap")
    lo = [c * n for c, n in zip(topo.cart_coords(rank), dims)]
    block = padded[tuple(slice(a, a + n + 2) for a, n in zip(lo, dims))].copy()
    block[1:-1, 1:-1, 1:-1, :] = 0.0
    return block


class TestConsecutiveExchanges:
    """Every exchange reuses the same 32 tags; FIFO matching per (source,
    tag) must keep consecutive exchanges apart and the fabric bounded."""

    @pytest.mark.parametrize("model", [None, TransportModel(20e-6, 1000.0)],
                             ids=["no-model", "model"])
    @pytest.mark.parametrize("proc_dims", [(1, 1, 1), (2, 1, 1)])
    def test_fresh_interior_every_exchange(self, proc_dims, model):
        # strategies run in pairs (B B N N ...) so all four transitions occur;
        # with the model a rank can post exchange k+1 while its peer drains k
        dims, m, exchanges = (2, 3, 2), 3, 24
        topo = CartesianTopology(proc_dims)
        global_dims = tuple(p * n for p, n in zip(proc_dims, dims))

        def body(ctx):
            f = lattice.DistributionField(dims, m)
            buffers = HaloBuffers(topo, ctx.rank, dims, m, ctx.endpoint)
            lo = [c * n for c, n in zip(topo.cart_coords(ctx.rank), dims)]
            own = tuple(slice(a, a + n) for a, n in zip(lo, dims))
            stale = []
            for k in range(exchanges):
                glob = np.random.default_rng([17, k]).uniform(-1.0, 1.0, global_dims + (m,))
                f.interior()[...] = glob[own]
                exchange(f, topo, buffers, ("blocking", "nonblocking")[k // 2 % 2])
                if not np.array_equal(halo_shell(f), global_wrap_block(glob, topo, ctx.rank, dims)):
                    stale.append(k)
            return stale

        outs = run_ranks(topo.nranks, body, watchdog_seconds=10.0, model=model)
        assert outs == [[]] * topo.nranks

    @pytest.mark.parametrize("proc_dims", [(1, 1, 1), (2, 1, 1)])
    def test_fabric_queues_stay_bounded(self, proc_dims):
        dims, m = (2, 2, 2), 2
        topo = CartesianTopology(proc_dims)

        def body(ctx):
            f = random_field(dims, m, (5, ctx.rank))
            buffers = HaloBuffers(topo, ctx.rank, dims, m, ctx.endpoint)
            for strategy in ("blocking", "nonblocking"):
                for _ in range(500):
                    exchange(f, topo, buffers, strategy)
            return ctx.endpoint.fabric

        fabric = run_ranks(topo.nranks, body, watchdog_seconds=10.0)[0]
        assert fabric.pending_summary() == []
        for per_dest in fabric._pending:
            assert len(per_dest) <= 32


class TestWireContent:
    """Every message carries its sites in ascending (x, y, z) order with the
    m components of a site together, whatever the field's storage order."""

    @pytest.mark.parametrize("strategy", ["blocking", "nonblocking"])
    @pytest.mark.parametrize("dims", [(3, 4, 5), (1, 2, 1)])
    def test_packed_bytes_are_site_major(self, dims, strategy):
        m = 19
        topo = CartesianTopology((1, 1, 1))
        values = np.random.default_rng(4).uniform(-1.0, 1.0, size=dims + (m,))
        # a single periodic rank's halo is the wrap of its own interior
        ref = np.pad(values, [(1, 1)] * 3 + [(0, 0)], mode="wrap")

        def body(ctx):
            f = lattice.DistributionField(dims, m)
            f.interior()[...] = values
            buffers = HaloBuffers(topo, 0, dims, m, ctx.endpoint)
            exchange(f, topo, buffers, strategy)
            return buffers

        buffers = run_ranks(1, body, watchdog_seconds=5.0)[0]
        if strategy == "blocking":
            messages = [msg for rnd in buffers.schedules["blocking"] for msg in rnd.messages]
        else:
            messages = buffers.schedules["nonblocking"][0].messages
        assert len(messages) == (6 if strategy == "blocking" else 26)
        for msg in messages:
            assert bytes(msg.view) == np.ascontiguousarray(ref[msg.send_slices]).tobytes()


class _Recording:
    """An endpoint that forwards every call and keeps, by tag, the
    destination and the bytes of each send when it is posted."""

    def __init__(self, inner):
        self.inner = inner
        self.sent = {}

    def post_send(self, dest, tag, payload):
        self.sent[tag] = (dest, bytes(payload))
        return self.inner.post_send(dest, tag, payload)

    def __getattr__(self, name):
        return getattr(self.inner, name)


class TestDirectWireContent:
    """On grids of distinct peers, each direct message posts its send slice
    in canonical order and the halo shells equal the blocking ones, so a
    gather or scatter index out of order shows in the bytes or the shell."""

    CASES = [((3, 3, 3), True), ((3, 2, 1), False)]
    IDS = ["periodic-3x3x3", "open-3x2x1"]

    @pytest.mark.parametrize("proc_dims, periodic", CASES, ids=IDS)
    def test_posted_bytes_are_the_send_slices(self, proc_dims, periodic):
        dims, m = (2, 3, 4), 3
        topo = CartesianTopology(proc_dims, periodic=periodic)

        def body(ctx):
            f = random_field(dims, m, (8, ctx.rank))
            ep = _Recording(ctx.endpoint)
            buffers = HaloBuffers(topo, ctx.rank, dims, m, ep)
            exchange(f, topo, buffers, "nonblocking")
            expected = {msg.send_id: (msg.peer, np.ascontiguousarray(f.data[msg.send_slices]).tobytes())
                        for msg in buffers.schedules["nonblocking"][0].messages}
            return expected, ep.sent

        for rank, (expected, sent) in enumerate(run_ranks(topo.nranks, body, watchdog_seconds=10.0)):
            assert sent == expected, f"rank {rank}"
            if periodic:
                assert len({peer for peer, _ in sent.values()}) == 26

    @pytest.mark.parametrize("proc_dims, periodic", CASES, ids=IDS)
    def test_shells_equal_the_blocking_shells(self, proc_dims, periodic):
        blocking, nonblocking = equivalence_case(proc_dims, (2, 3, 4), 3, seed=13, periodic=periodic)
        for (shell_b, _), (shell_n, _) in zip(blocking, nonblocking):
            assert shell_b.any()
            assert np.array_equal(shell_b, shell_n)


class TestShuffledCompletions:
    """The non-blocking end unpacks each plane as it arrives and scatters the
    edges and corners once.  On one rank its receives complete in post
    order, so here ``wait_any`` returns them in a seeded random order, and
    the shells must still equal the blocking ones."""

    CASES = [((1, 1, 1), True), ((2, 2, 1), True), ((3, 2, 1), False)]
    IDS = ["periodic-1x1x1", "periodic-2x2x1", "open-3x2x1"]

    @pytest.mark.parametrize("proc_dims, periodic", CASES, ids=IDS)
    def test_shells_equal_the_blocking_shells(self, proc_dims, periodic):
        dims, m = (2, 3, 4), 3
        topo = CartesianTopology(proc_dims, periodic=periodic)

        def body(ctx):
            mismatched = []
            for seed in range(50):
                shells = []
                for strategy in ("blocking", "nonblocking"):
                    f = random_field(dims, m, (seed, ctx.rank))
                    ep = ShuffledCompletions(ctx.endpoint, (seed, ctx.rank))
                    exchange(f, topo, HaloBuffers(topo, ctx.rank, dims, m, ep), strategy)
                    shells.append(halo_shell(f))
                if not np.array_equal(*shells):
                    mismatched.append(seed)
            return mismatched

        assert run_ranks(topo.nranks, body, watchdog_seconds=10.0) == [[]] * topo.nranks


class TestMultiRankConservation:
    def test_exchange_stream_conserves_mass(self):
        vs = lattice.D3Q19
        topo = CartesianTopology((2, 2, 1))
        dims = (3, 3, 4)

        def body(ctx):
            rng = np.random.default_rng([31, ctx.rank])
            f = lattice.random_state(dims, vs, rng)
            buffers = HaloBuffers(topo, ctx.rank, dims, vs.m, ctx.endpoint)
            before = total_mass(f)
            exchange(f, topo, buffers, "nonblocking")
            f = lattice.stream(f, vs)
            return before, total_mass(f)

        outs = run_ranks(topo.nranks, body, watchdog_seconds=10.0)
        total_before = sum(b for b, _ in outs)
        total_after = sum(a for _, a in outs)
        assert abs(total_after - total_before) <= 1e-13 * abs(total_before)


def past_open_edges(topo, rank, dims):
    """Mask of a rank's (Lx+2, Ly+2, Lz+2) sites that lie past an open edge
    of the global lattice, from the rank's grid coordinates alone."""
    mask = np.zeros(tuple(n + 2 for n in dims), dtype=bool)
    for axis, (c, p, n, periodic) in enumerate(
            zip(topo.cart_coords(rank), topo.dims, dims, topo.periodic)):
        side = [slice(None)] * 3
        for edge, index in ((0, 0), (p - 1, n + 1)):
            if not periodic and c == edge:
                side[axis] = index
                mask[tuple(side)] = True
    return mask


class TestOpenEdges:
    """Nothing but the exchange writes a halo value, and the exchange
    leaves every value past an open edge at its allocated 0.0."""

    @pytest.mark.parametrize("strategy", ["blocking", "nonblocking"])
    @pytest.mark.parametrize("proc_dims, periodic", [
        ((2, 2, 1), (True, False, True)),
        ((2, 1, 1), False),
    ], ids=["mixed", "open"])
    def test_stay_zero_through_the_physics_loop(self, strategy, proc_dims, periodic):
        vs = lattice.D3Q19
        topo = CartesianTopology(proc_dims, periodic=periodic)
        dims = (4, 3, 4)

        def body(ctx):
            past = past_open_edges(topo, ctx.rank, dims)
            assert past.any()  # every rank of both grids has an open edge
            f = lattice.random_state(dims, vs, np.random.default_rng([41, ctx.rank]))
            spare = lattice.DistributionField(dims, vs.m)
            buffers = HaloBuffers(topo, ctx.rank, dims, vs.m, ctx.endpoint)
            for step in range(8):
                exchange(f, topo, buffers, strategy)
                spare = lattice.stream(f, vs, out=spare)
                lattice.collide(spare, 1.0, vs)
                f, spare = spare, f
                for g in (f, spare):
                    assert not g.data[past].any(), f"rank {ctx.rank}, step {step}"

        run_ranks(topo.nranks, body, watchdog_seconds=10.0)


class TestDeadlockAnnotation:
    def test_blocking_reports_stage(self):
        # rank 1 never participates, so rank 0 stalls in its first stage
        topo = CartesianTopology((2, 1, 1))

        def body(ctx):
            if ctx.rank == 1:
                return None
            f = random_field((2, 2, 2), 2, 0)
            buffers = HaloBuffers(topo, 0, (2, 2, 2), 2, ctx.endpoint)
            exchange_blocking(f, topo, buffers)

        with pytest.raises(TransportDeadlock) as err:
            run_ranks(2, body, watchdog_seconds=0.4)
        assert "blocked in X stage" in str(err.value)
        assert err.value.pending

    def test_nonblocking_reports_outstanding_ids(self):
        topo = CartesianTopology((2, 1, 1))

        def body(ctx):
            if ctx.rank == 1:
                return None
            f = random_field((2, 2, 2), 2, 0)
            buffers = HaloBuffers(topo, 0, (2, 2, 2), 2, ctx.endpoint)
            token = exchange_nonblocking_start(f, topo, buffers)
            exchange_nonblocking_end(token, f, buffers)

        with pytest.raises(TransportDeadlock) as err:
            run_ranks(2, body, watchdog_seconds=0.4)
        message = str(err.value)
        assert "outstanding receives: " in message
        # the un-matching peer sits in +/-X: exactly the 18 ids with x != 0
        named = ast.literal_eval(message.split("outstanding receives: ")[1])
        assert sorted(named) == named
        assert set(named) == {
            HaloNeighbour(i).name for i, d in enumerate(DISPLACEMENTS) if d[0] != 0
        }
        assert len(named) == 18

    @pytest.mark.parametrize("strategy, stalled, named", [
        ("blocking", "X stage", ["NMM", "PMM"]),
        ("nonblocking", "direct round",
         sorted(HaloNeighbour(i).name for i, d in enumerate(DISPLACEMENTS) if d[0] != 0)),
    ], ids=["blocking", "nonblocking"])
    def test_stall_names_its_round_and_outstanding_receives(self, strategy, stalled, named):
        # rank 1 never participates; only the receives from it stay outstanding
        topo = CartesianTopology((2, 1, 1))

        def body(ctx):
            if ctx.rank == 1:
                return None
            f = random_field((2, 2, 2), 2, 0)
            exchange(f, topo, HaloBuffers(topo, 0, (2, 2, 2), 2, ctx.endpoint), strategy)

        with pytest.raises(TransportDeadlock) as err:
            run_ranks(2, body, watchdog_seconds=0.4)
        message = str(err.value)
        assert f"blocked in {stalled}; outstanding receives: " in message
        assert ast.literal_eval(message.split("outstanding receives: ")[1]) == named

    @pytest.mark.parametrize("sleep_s", [0.8, 3.0])
    def test_rank_missing_the_barrier_is_named(self, sleep_s):
        # rank 1 sleeps past the 0.5 s watchdog; at 3 s it is still asleep
        # when run_ranks gives up on it one watchdog period after rank 0 fails
        def body(ctx):
            if ctx.rank == 1:
                time.sleep(sleep_s)
            ctx.barrier.wait()

        t0 = time.monotonic()
        with pytest.raises(TransportDeadlock) as err:
            run_ranks(2, body, watchdog_seconds=0.5)
        assert time.monotonic() - t0 < 2.5
        assert "barrier" in str(err.value)
        if sleep_s > 2.5:
            assert "rank(s) [1] still running" in str(err.value)


@pytest.fixture
def started(monkeypatch):
    """The names of the threads started while the test runs, in order."""
    names = []
    start = threading.Thread.start

    def recording_start(thread):
        names.append(thread.name)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", recording_start)
    return names


class TestRunRanks:
    def test_rank_stuck_after_a_peer_ended_is_named(self):
        # rank 1 blocks outside the fabric, so no watchdog of its own fires
        release = threading.Event()
        outcome = []

        def body(ctx):
            if ctx.rank == 1:
                release.wait()
            return ctx.rank

        def call():
            try:
                outcome.append(run_ranks(2, body, watchdog_seconds=0.2))
            except TransportDeadlock as exc:
                outcome.append(exc)

        caller = threading.Thread(target=call, daemon=True)
        try:
            caller.start()
            caller.join(timeout=10.0)
            assert not caller.is_alive(), "run_ranks hung on a rank stuck outside the fabric"
        finally:
            release.set()
        [err] = outcome
        assert isinstance(err, TransportDeadlock)
        assert "rank(s) [1] still running" in str(err)

    def test_one_rank_runs_on_the_caller(self, started):
        before = threading.active_count()

        def body(ctx):
            return threading.current_thread(), threading.active_count()

        [(thread, count)] = run_ranks(1, body, watchdog_seconds=5.0)
        assert thread is threading.current_thread()
        # a daemon left behind by an earlier test may end meanwhile
        assert count <= before
        assert started == []

    def test_one_rank_benchmark_starts_no_thread(self, started):
        cfg = RunConfig(proc_dims=(1, 1, 1), local_dims=(3, 3, 3), iterations=2,
                        repetitions=2, watchdog_seconds=5.0)
        run_benchmark(cfg)
        assert started == []

    def test_ranks_past_0_get_a_thread_each(self, started):
        def body(ctx):
            ctx.barrier.wait()
            return threading.current_thread().name

        names = run_ranks(3, body, watchdog_seconds=5.0)
        assert names == [threading.current_thread().name, "rank-1", "rank-2"]
        assert started == ["rank-1", "rank-2"]

    def test_caller_rank_failure_beats_a_peer_in_the_fabric(self):
        waiting = threading.Event()

        def body(ctx):
            if ctx.rank == 0:
                waiting.wait(5.0)
                raise ValueError("rank 0 failed")
            handle = ctx.endpoint.post_recv(0, 0, bytearray(8))
            waiting.set()
            ctx.endpoint.wait_all((handle,))

        t0 = time.monotonic()
        with pytest.raises(ValueError, match="rank 0 failed"):
            run_ranks(2, body, watchdog_seconds=5.0)
        assert time.monotonic() - t0 < 1.0

    def test_peer_failure_beats_the_caller_rank_at_the_barrier(self):
        def body(ctx):
            if ctx.rank == 0:
                ctx.barrier.wait()
                return
            deadline = time.monotonic() + 5.0
            while ctx.barrier.n_waiting == 0 and time.monotonic() < deadline:
                time.sleep(0.001)
            raise ValueError("rank 1 failed")

        t0 = time.monotonic()
        with pytest.raises(ValueError, match="rank 1 failed"):
            run_ranks(2, body, watchdog_seconds=5.0)
        assert time.monotonic() - t0 < 1.0


def physics_cfg(local_dims, proc_dims=(1, 1, 1), watchdog_seconds=5.0, m=19):
    return RunConfig(proc_dims=proc_dims, local_dims=local_dims, m=m, physics="full",
                     iterations=2, repetitions=1, warmup=0, watchdog_seconds=watchdog_seconds)


def kernel_threads():
    return [t for t in threading.enumerate() if "-kernel" in t.name]


class TestKernelWorkers:
    @pytest.fixture
    def cpus(self, monkeypatch):
        """Sets the CPUs the run may use; every interior site may get a worker."""
        monkeypatch.setattr(runner, "KERNEL_MIN_SITES", 1)
        return lambda n: monkeypatch.setattr(runner, "usable_cpus", lambda: n)

    @pytest.mark.parametrize("dims", [(32, 32, 32), (7, 5, 3), (1, 9, 2)])
    def test_physics_is_the_same_on_any_number_of_workers(self, cpus, dims):
        # workers share one field; a short switch interval hands the GIL
        # between them often, so an unjoined write would show
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for m in (19, 27):
                digests = set()
                for n in (1, 2, 3):
                    cpus(n)
                    assert len(runner.kernel_slabs(dims, 1)) == min(n, dims[0])
                    for strategy in ("blocking", "nonblocking"):
                        data = run_physics(physics_cfg(dims, m=m), strategy, 3)
                        digests.add(
                            hashlib.sha256(b"".join(d.tobytes() for d in data)).hexdigest())
                assert len(digests) == 1, f"m={m}"
        finally:
            sys.setswitchinterval(interval)

    def test_helper_failure_reaches_the_caller_as_itself(self, cpus, monkeypatch):
        cpus(2)
        make = runner._rank_fields

        def seeded(cfg, local_dims, rank, vs):
            # the helper's slab, x >= 4 of 8, holds no mass; the rank
            # thread's slab keeps a positive density after streaming
            field = make(cfg, local_dims, rank, vs)
            field.interior()[4:] = 0.0
            return field

        monkeypatch.setattr(runner, "_rank_fields", seeded)
        with pytest.raises(ZeroDensityError):
            run_physics(physics_cfg((8, 8, 8)), "blocking", 1)
        assert kernel_threads() == []

    @pytest.mark.parametrize("phase", ["stream", "collide"])
    def test_late_helper_is_named(self, cpus, monkeypatch, phase):
        cpus(2)
        kernel = getattr(lattice, phase)

        def slow(*args):
            if threading.current_thread().name.startswith("rank-0-kernel"):
                time.sleep(0.6)
            kernel(*args)

        monkeypatch.setattr(lattice, phase, slow)
        with pytest.raises(TransportDeadlock, match=f"kernel worker 1 did not finish its {phase} "):
            run_physics(physics_cfg((4, 4, 4), watchdog_seconds=0.2), "blocking", 1)
        assert kernel_threads() == []

    @pytest.mark.parametrize("nranks, L, names", [
        (1, 32, ["rank-0-kernel_0"]),
        (1, 27, []),  # 19,683 sites: two workers would get fewer than KERNEL_MIN_SITES each
        (2, 32, ["rank-1"]),
    ])
    def test_threads_started_on_two_cpus(self, started, monkeypatch, nranks, L, names):
        monkeypatch.setattr(runner, "usable_cpus", lambda: 2)
        run_benchmark(physics_cfg((L, L, L), proc_dims=(nranks, 1, 1)))
        assert started == names
        assert kernel_threads() == []
