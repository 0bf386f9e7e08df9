import hashlib
import threading
import time
from collections import defaultdict, deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from halolab.errors import (
    MessageTruncation,
    TransportAborted,
    TransportDeadlock,
    UsageError,
)
from halolab.transport import (
    Fabric,
    TransportModel,
    bandwidth_sweep,
    detect_plateau,
    ping_pong,
)


def make_pair(watchdog=5.0, model=None):
    fabric = Fabric(2, watchdog_seconds=watchdog, model=model)
    return fabric, fabric.endpoint(0), fabric.endpoint(1)


class TestMatching:
    def test_send_to_self(self):
        fabric = Fabric(1, watchdog_seconds=2.0)
        ep = fabric.endpoint(0)
        rh = ep.post_recv(0, 7, 16)
        sh = ep.post_send(0, 7, b"12345678")
        ep.wait_all((rh, sh))
        assert rh.payload == b"12345678"
        fabric.assert_drained()

    def test_send_pending_until_receive_posted(self):
        # the synchronous-send contract, observed from a second thread
        fabric, ep0, ep1 = make_pair()
        sh = ep0.post_send(1, 3, b"x" * 32)
        time.sleep(0.05)
        assert sh.state == "pending"
        rh = ep1.post_recv(0, 3, 32)
        ep0.wait_all((sh,))
        ep1.wait_all((rh,))
        assert sh.state == "complete"
        assert rh.payload == b"x" * 32

    def test_fifo_same_source_tag(self):
        fabric, ep0, ep1 = make_pair()
        s1 = ep0.post_send(1, 5, b"first---")
        s2 = ep0.post_send(1, 5, b"second--")
        r1 = ep1.post_recv(0, 5, 8)
        r2 = ep1.post_recv(0, 5, 8)
        ep1.wait_all((r1, r2))
        ep0.wait_all((s1, s2))
        assert r1.payload == b"first---"
        assert r2.payload == b"second--"

    def test_wrong_tag_does_not_match(self):
        fabric, ep0, ep1 = make_pair(watchdog=0.3)
        ep1.post_recv(0, 1, 8)
        sh = ep0.post_send(1, 2, b"12345678")
        with pytest.raises(TransportDeadlock):
            ep0.wait_all((sh,))

    def test_invalid_destination(self):
        fabric = Fabric(2)
        ep = fabric.endpoint(0)
        with pytest.raises(ValueError):
            ep.post_send(5, 0, b"12345678")
        with pytest.raises(ValueError):
            ep.post_recv(-1, 0, 8)
        with pytest.raises(ValueError):
            ep.post_send(1, -3, b"12345678")

    def test_truncation_marks_failed(self):
        fabric, ep0, ep1 = make_pair()
        rh = ep1.post_recv(0, 0, 4)
        ep0.post_send(1, 0, b"way too long")
        with pytest.raises(MessageTruncation):
            ep1.wait_all((rh,))

    def test_delivery_is_a_copy(self):
        fabric, ep0, ep1 = make_pair()
        payload = bytearray(b"mutate-me")
        rh = ep1.post_recv(0, 0, 16)
        ep0.post_send(1, 0, payload)
        ep1.wait_all((rh,))
        payload[0] = 0
        assert rh.payload == b"mutate-me"


class TestWaits:
    def test_wait_all_empty(self):
        fabric = Fabric(1)
        fabric.endpoint(0).wait_all(())

    def test_wait_all_six_pairs(self):
        fabric, ep0, ep1 = make_pair()
        handles = []
        for tag in range(6):
            handles.append(ep1.post_recv(0, tag, 8))
            handles.append(ep0.post_send(1, tag, bytes([tag]) * 8))
        ep0.wait_all(handles)
        for tag in range(6):
            assert handles[2 * tag].payload == bytes([tag]) * 8

    def test_wait_all_unmatched_fires_watchdog(self):
        fabric, ep0, ep1 = make_pair(watchdog=0.3)
        rh = ep1.post_recv(0, 9, 8)
        good_r = ep1.post_recv(0, 1, 8)
        ep0.post_send(1, 1, b"goodgood")
        with pytest.raises(TransportDeadlock) as err:
            ep1.wait_all((rh, good_r))
        assert ("recv", 0, 1, 9) in err.value.pending

    def test_wait_any_single(self):
        fabric = Fabric(1)
        ep = fabric.endpoint(0)
        rh = ep.post_recv(0, 0, 8)
        ep.post_send(0, 0, b"selfself")
        assert ep.wait_any([rh]) == 0

    def test_wait_any_permutation(self):
        fabric, ep0, ep1 = make_pair()
        recvs = [ep1.post_recv(0, tag, 8) for tag in range(26)]
        import random

        order = list(range(26))
        random.Random(4).shuffle(order)
        for tag in order:
            ep0.post_send(1, tag, bytes([tag]) * 8)
        seen = [ep1.wait_any(recvs) for _ in range(26)]
        assert sorted(seen) == list(range(26))
        with pytest.raises(UsageError):
            ep1.wait_any(recvs)

    def test_wait_any_mixed_pending_complete(self):
        fabric, ep0, ep1 = make_pair()
        never = ep1.post_recv(0, 99, 8)
        ready = ep1.post_recv(0, 1, 8)
        ep0.post_send(1, 1, b"abcdefgh")
        idx = ep1.wait_any([never, ready])
        assert idx == 1
        # drain the leftover so shutdown is clean
        ep0.post_send(1, 99, b"finish--")
        ep1.wait_all((never,))

    def test_wait_any_empty_list(self):
        fabric = Fabric(1)
        with pytest.raises(UsageError):
            fabric.endpoint(0).wait_any([])

    def test_completed_handle_waits_return_immediately(self):
        fabric = Fabric(1)
        ep = fabric.endpoint(0)
        rh = ep.post_recv(0, 0, 8)
        sh = ep.post_send(0, 0, b"11111111")
        ep.wait_all((rh, sh))
        t0 = time.perf_counter()
        ep.wait_all((rh, sh))
        assert time.perf_counter() - t0 < 0.05

    def test_assert_drained_reports_leftovers(self):
        fabric = Fabric(2, watchdog_seconds=0.2)
        fabric.endpoint(0).post_send(1, 4, b"orphaned")
        with pytest.raises(TransportDeadlock) as err:
            fabric.assert_drained()
        assert ("send", 0, 1, 4) in err.value.pending


class TestWakeUps:
    """A rank blocked in a wait is woken by the post or abort that concerns it."""

    @staticmethod
    def _blocked(target):
        box = {}

        def run():
            t0 = time.perf_counter()
            try:
                box["result"] = target()
            except Exception as exc:  # handed to the test thread below
                box["error"] = exc
            box["elapsed"] = time.perf_counter() - t0

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        time.sleep(0.1)
        assert thread.is_alive(), box
        return thread, box

    def test_abort_releases_wait_any_before_the_watchdog(self):
        fabric, ep0, ep1 = make_pair(watchdog=10.0)
        rh = ep1.post_recv(0, 3, 8)
        thread, box = self._blocked(lambda: ep1.wait_any([rh]))
        fabric.abort("test abort")
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        assert isinstance(box["error"], TransportAborted)
        assert box["elapsed"] < 2.0

    def test_matching_receive_releases_blocked_sender(self):
        fabric, ep0, ep1 = make_pair(watchdog=10.0)
        sh = ep0.post_send(1, 4, b"queued--")
        thread, box = self._blocked(lambda: ep0.wait_all([sh]))
        assert sh.state == "pending"
        rh = ep1.post_recv(0, 4, 8)
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        assert "error" not in box and box["elapsed"] < 2.0
        assert sh.state == "complete" and rh.payload == b"queued--"
        fabric.assert_drained()

    def test_post_notifies_only_the_rank_whose_handle_completed(self):
        # the timed tests above would also pass on the 50 ms poll alone
        fabric, ep0, ep1 = make_pair()
        notified = []

        class Recording(threading.Condition):
            def __init__(self, rank):
                super().__init__(fabric._lock)
                self.rank = rank

            def notify_all(self):
                notified.append(self.rank)
                super().notify_all()

        fabric._conds = [Recording(0), Recording(1)]
        ep0.post_send(1, 0, b"a")
        ep1.post_recv(0, 1, 8)
        assert notified == []  # nothing matched
        ep1.post_recv(0, 0, 8)  # completes rank 0's send
        ep0.post_send(1, 1, b"b")  # completes rank 1's receive
        assert notified == [0, 1]
        ep0.post_recv(0, 2, 8)
        ep0.post_send(0, 2, b"c")  # a self-message wakes no one
        assert notified == [0, 1]
        fabric.abort("done")
        assert notified == [0, 1, 0, 1]


class FabricMachine(RuleBasedStateMachine):
    """Random posts and waits on a 2-rank fabric from one thread.

    A model predicts the FIFO pairing of sends and receives per (source,
    dest, tag).  Waits only ever name matched handles, so nothing blocks;
    the short watchdog turns a wrongly pending handle into a failure.
    Every payload starts with a serial number, so a FIFO slip changes the
    delivered bytes.
    """

    ranks = st.integers(0, 1)
    tags = st.integers(0, 2)

    def __init__(self):
        super().__init__()
        self.fabric = Fabric(2, watchdog_seconds=0.5)
        self.eps = [self.fabric.endpoint(0), self.fabric.endpoint(1)]
        self.serial = 0
        self.sends = defaultdict(deque)  # key -> unmatched (handle, bytes, array)
        self.recvs = defaultdict(deque)  # key -> unmatched (handle, capacity)
        self.pairs = []  # (send, recv, bytes sent, array or None, truncated)
        self.fresh = []  # completed handles no wait_any has returned yet

    def _match(self, send, recv):
        (sh, sent, array), (rh, capacity) = send, recv
        truncated = len(sent) > capacity
        self.pairs.append((sh, rh, sent, array, truncated))
        if not truncated:
            self.fresh.extend((sh, rh))

    @rule(src=ranks, dest=ranks, tag=tags, body=st.binary(max_size=40), as_array=st.booleans())
    def post_send(self, src, dest, tag, body, as_array):
        self.serial += 1
        array = None
        if as_array:
            # an int32 array posted as a plain numpy memoryview: len != nbytes
            array = np.array([self.serial] + list(body), dtype=np.int32)
            sent = array.tobytes()
            payload = memoryview(array)
        else:
            sent = payload = self.serial.to_bytes(4, "little") + body
        sh = self.eps[src].post_send(dest, tag, payload)
        key = (src, dest, tag)
        if self.recvs[key]:
            self._match((sh, sent, array), self.recvs[key].popleft())
        else:
            self.sends[key].append((sh, sent, array))

    @rule(dest=ranks, src=ranks, tag=tags, capacity=st.integers(0, 200))
    def post_recv(self, dest, src, tag, capacity):
        rh = self.eps[dest].post_recv(src, tag, capacity)
        key = (src, dest, tag)
        if self.sends[key]:
            self._match(self.sends[key].popleft(), (rh, capacity))
        else:
            self.recvs[key].append((rh, capacity))

    @precondition(lambda self: self.fresh)
    @rule(data=st.data(), rank=ranks)
    def wait_any(self, data, rank):
        handles = data.draw(st.lists(st.sampled_from(self.fresh), min_size=1, unique=True))
        ep = self.eps[rank]
        seen = [ep.wait_any(handles) for _ in handles]
        assert sorted(seen) == list(range(len(handles)))
        with pytest.raises(UsageError):
            ep.wait_any(handles)
        self.fresh = [h for h in self.fresh if h not in handles]

    @precondition(lambda self: self.pairs)
    @rule(data=st.data(), rank=ranks)
    def wait_all(self, data, rank):
        sh, rh, sent, array, truncated = data.draw(st.sampled_from(self.pairs))
        ep = self.eps[rank]
        if truncated:
            for h in (sh, rh):
                with pytest.raises(MessageTruncation):
                    ep.wait_all([h])
            return
        ep.wait_all([sh, rh])
        assert sh.state == rh.state == "complete"
        if array is not None:
            array += 1  # the send has completed, so its buffer is the sender's again

    @invariant()
    def delivered_bytes_equal_sent_bytes(self):
        for _, rh, sent, _, truncated in self.pairs:
            assert rh.payload == (None if truncated else sent)

    @invariant()
    def unmatched_requests_are_the_model_queues(self):
        expected = [("send", s, d, t) for (s, d, t), q in self.sends.items() for _ in q]
        expected += [("recv", s, d, t) for (s, d, t), q in self.recvs.items() for _ in q]
        assert self.fabric.pending_summary() == sorted(expected)

    def teardown(self):
        # match every leftover request, then shutdown must find nothing pending
        handles = []
        for (src, dest, tag), q in self.sends.items():
            handles.extend(self.eps[dest].post_recv(src, tag, 200) for _ in q)
        for (src, dest, tag), q in self.recvs.items():
            handles.extend(self.eps[src].post_send(dest, tag, b"") for _ in q)
        self.eps[0].wait_all(handles)
        self.fabric.assert_drained()


TestFabricMachine = FabricMachine.TestCase


class TestIntegrity:
    @given(
        st.lists(
            st.tuples(st.integers(0, 3), st.binary(min_size=1, max_size=256)),
            min_size=1,
            max_size=16,
        ),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=25)
    def test_no_loss_no_corruption_under_interleaving(self, messages, seed):
        # rank 0 sends a randomized message schedule, rank 1 receives in
        # tag order per stream; every payload must arrive bit-identical
        import random

        rng = random.Random(seed)
        fabric = Fabric(2, watchdog_seconds=5.0)
        ep0, ep1 = fabric.endpoint(0), fabric.endpoint(1)
        digests = [hashlib.sha256(payload).hexdigest() for _, payload in messages]
        got = {}

        def sender():
            order = list(enumerate(messages))
            rng.shuffle(order)
            pending = []
            for i, (tag_class, payload) in order:
                pending.append(ep0.post_send(1, i, payload))
                if rng.random() < 0.3:
                    time.sleep(0)
            ep0.wait_all(pending)

        def receiver():
            handles = [
                ep1.post_recv(0, i, len(payload))
                for i, (_, payload) in enumerate(messages)
            ]
            for _ in range(len(handles)):
                idx = ep1.wait_any(handles)
                got[idx] = handles[idx].payload

        threads = [threading.Thread(target=sender), threading.Thread(target=receiver)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        fabric.assert_drained()
        assert len(got) == len(messages)
        for i, digest in enumerate(digests):
            assert hashlib.sha256(got[i]).hexdigest() == digest


class TestCostModel:
    def test_model_delays_completion(self):
        model = TransportModel(latency_s=0.05, bandwidth_MBps=1e6)
        fabric = Fabric(1, watchdog_seconds=5.0, model=model)
        ep = fabric.endpoint(0)
        rh = ep.post_recv(0, 0, 8)
        t0 = time.perf_counter()
        sh = ep.post_send(0, 0, b"12345678")
        ep.wait_all((rh, sh))
        elapsed = time.perf_counter() - t0
        assert elapsed >= 0.045

    def test_pipe_serialises_per_sender(self):
        model = TransportModel(latency_s=0.02, bandwidth_MBps=1e6)
        fabric = Fabric(1, watchdog_seconds=5.0, model=model)
        ep = fabric.endpoint(0)
        handles = []
        for tag in range(5):
            handles.append(ep.post_recv(0, tag, 8))
            handles.append(ep.post_send(0, tag, b"00000000"))
        t0 = time.perf_counter()
        ep.wait_all(handles)
        elapsed = time.perf_counter() - t0
        assert elapsed >= 5 * 0.02 * 0.9

    def test_model_validation(self):
        with pytest.raises(ValueError):
            TransportModel(-1.0, 100.0)
        with pytest.raises(ValueError):
            TransportModel(0.0, 0.0)


class TestPingPong:
    def test_sample_invariants(self):
        s = ping_pong(1024, 16)
        assert s.message_bytes == 1024 and s.round_trips == 16
        assert s.elapsed_s > 0
        expected_bw = 2 * 1024 * 16 / s.elapsed_s / 1e6
        assert s.bandwidth_MBps == pytest.approx(expected_bw)

    def test_rejects_tiny_messages(self):
        with pytest.raises(ValueError):
            ping_pong(4, 10)

    def test_elapsed_roughly_linear_in_round_trips(self):
        small = min(ping_pong(65536, 40).elapsed_s for _ in range(3))
        big = min(ping_pong(65536, 400).elapsed_s for _ in range(3))
        ratio = big / small
        assert 10 / 2 <= ratio <= 10 * 2

    def test_sweep_monotone_then_plateau(self):
        from halolab.transport import plateau_level

        samples = bandwidth_sweep(sizes=[1024 << k for k in range(11)])
        assert all(s.bandwidth_MBps > 0 for s in samples)
        plateau = detect_plateau(samples)
        level = plateau_level(samples)
        # once saturated, the curve never drops below half the sustained level
        for s in samples:
            if s.message_bytes >= plateau.message_bytes:
                assert s.bandwidth_MBps >= 0.5 * level
        # and it genuinely rose to get there
        smallest = min(samples, key=lambda s: s.message_bytes)
        assert smallest.bandwidth_MBps < level
