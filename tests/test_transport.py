import hashlib
import threading
import time
from collections import defaultdict, deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from halolab.errors import (
    MessageTruncation,
    TransportAborted,
    TransportDeadlock,
    UsageError,
)
from halolab.runner import bandwidth_sweep, detect_plateau, ping_pong, plateau_level
from halolab.transport import Fabric, TransportModel
from helpers import describe_sweep


_FILL = b"\xee"  # what a receive buffer holds before its delivery


def make_pair(watchdog=5.0, model=None):
    fabric = Fabric(2, watchdog_seconds=watchdog, model=model)
    return fabric, fabric.endpoint(0), fabric.endpoint(1)


class TestMatching:
    def test_send_to_self(self):
        fabric = Fabric(1, watchdog_seconds=2.0)
        ep = fabric.endpoint(0)
        rh = ep.post_recv(0, 7, bytearray(16))
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
        rh = ep1.post_recv(0, 3, bytearray(32))
        ep0.wait_all((sh,))
        ep1.wait_all((rh,))
        assert sh.state == "complete"
        assert rh.payload == b"x" * 32

    def test_fifo_same_source_tag(self):
        fabric, ep0, ep1 = make_pair()
        s1 = ep0.post_send(1, 5, b"first---")
        s2 = ep0.post_send(1, 5, b"second--")
        r1 = ep1.post_recv(0, 5, bytearray(8))
        r2 = ep1.post_recv(0, 5, bytearray(8))
        ep1.wait_all((r1, r2))
        ep0.wait_all((s1, s2))
        assert r1.payload == b"first---"
        assert r2.payload == b"second--"

    def test_wrong_tag_does_not_match(self):
        fabric, ep0, ep1 = make_pair(watchdog=0.3)
        ep1.post_recv(0, 1, bytearray(8))
        sh = ep0.post_send(1, 2, b"12345678")
        with pytest.raises(TransportDeadlock):
            ep0.wait_all((sh,))

    def test_invalid_destination(self):
        fabric = Fabric(2)
        ep = fabric.endpoint(0)
        with pytest.raises(ValueError):
            ep.post_send(5, 0, b"12345678")
        with pytest.raises(ValueError):
            ep.post_recv(-1, 0, bytearray(8))
        with pytest.raises(ValueError):
            ep.post_send(1, -3, b"12345678")

    def test_truncation_marks_failed(self):
        fabric, ep0, ep1 = make_pair()
        rh = ep1.post_recv(0, 0, bytearray(4))
        ep0.post_send(1, 0, b"way too long")
        with pytest.raises(MessageTruncation):
            ep1.wait_all((rh,))

    def test_delivery_is_a_copy(self):
        fabric, ep0, ep1 = make_pair()
        payload = bytearray(b"mutate-me")
        rh = ep1.post_recv(0, 0, bytearray(16))
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
            handles.append(ep1.post_recv(0, tag, bytearray(8)))
            handles.append(ep0.post_send(1, tag, bytes([tag]) * 8))
        ep0.wait_all(handles)
        for tag in range(6):
            assert handles[2 * tag].payload == bytes([tag]) * 8

    def test_wait_all_unmatched_fires_watchdog(self):
        fabric, ep0, ep1 = make_pair(watchdog=0.3)
        rh = ep1.post_recv(0, 9, bytearray(8))
        good_r = ep1.post_recv(0, 1, bytearray(8))
        ep0.post_send(1, 1, b"goodgood")
        with pytest.raises(TransportDeadlock) as err:
            ep1.wait_all((rh, good_r))
        assert ("recv", 0, 1, 9) in err.value.pending

    def test_wait_any_single(self):
        fabric = Fabric(1)
        ep = fabric.endpoint(0)
        rh = ep.post_recv(0, 0, bytearray(8))
        ep.post_send(0, 0, b"selfself")
        assert ep.wait_any([rh]) == 0

    def test_wait_any_permutation(self):
        fabric, ep0, ep1 = make_pair()
        recvs = [ep1.post_recv(0, tag, bytearray(8)) for tag in range(26)]
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
        never = ep1.post_recv(0, 99, bytearray(8))
        ready = ep1.post_recv(0, 1, bytearray(8))
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
        rh = ep.post_recv(0, 0, bytearray(8))
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


class TestCompleteHandles:
    """Waits over handles that are already complete return after one scan,
    and still honour the abort, the cost model and truncation."""

    def test_wait_any_returns_a_complete_first_handle_and_consumes_it(self):
        fabric = Fabric(1, watchdog_seconds=2.0)
        ep = fabric.endpoint(0)
        done = ep.post_recv(0, 0, bytearray(8))
        ep.post_send(0, 0, b"complete")
        never = ep.post_recv(0, 1, bytearray(8))
        assert ep.wait_any([done, never]) == 0
        assert done.payload == b"complete"
        with pytest.raises(UsageError):
            ep.wait_any([done])

    @pytest.mark.parametrize("wait", ["wait_any", "wait_all"])
    def test_abort_is_raised_over_complete_handles(self, wait):
        fabric = Fabric(1, watchdog_seconds=2.0)
        ep = fabric.endpoint(0)
        rh = ep.post_recv(0, 0, bytearray(8))
        sh = ep.post_send(0, 0, b"complete")
        assert rh.state == sh.state == "complete"
        fabric.abort("test abort")
        with pytest.raises(TransportAborted):
            getattr(ep, wait)([rh, sh])

    def test_modelled_send_is_not_returned_before_its_time(self):
        model = TransportModel(latency_s=0.05, bandwidth_MBps=1e6)
        fabric = Fabric(1, watchdog_seconds=5.0, model=model)
        ep = fabric.endpoint(0)
        rh = ep.post_recv(0, 0, bytearray(8))
        t0 = time.perf_counter()
        sh = ep.post_send(0, 0, b"12345678")
        assert sh.state == "pending"  # matched, but its completion lies ahead
        assert ep.wait_any([sh, rh]) == 0
        assert time.perf_counter() - t0 >= 0.045
        assert sh.state == "complete"

    @pytest.mark.parametrize("wait", ["wait_any", "wait_all"])
    def test_truncation_is_raised_from_a_complete_handle(self, wait):
        fabric = Fabric(1, watchdog_seconds=2.0)
        ep = fabric.endpoint(0)
        rh = ep.post_recv(0, 0, bytearray(4))
        sh = ep.post_send(0, 0, b"way too long")  # meets its receive at once
        for h in (rh, sh):
            with pytest.raises(MessageTruncation):
                getattr(ep, wait)([h])
        assert rh.payload is None


class TestReceiveBuffers:
    """A receive lands in the buffer its poster owns: the delivered bytes
    fill its front, ``payload`` views them, and a payload that does not fit
    leaves the buffer as it was."""

    BUFFERS = {
        "bytearray": lambda n: bytearray(_FILL * n),
        "memoryview": lambda n: memoryview(bytearray(_FILL * n)),
        "uint8 array": lambda n: np.full(n, _FILL[0], dtype=np.uint8),
    }

    @given(
        sent=st.binary(max_size=300),
        capacity=st.integers(0, 300),
        kind=st.sampled_from(sorted(BUFFERS)),
        recv_first=st.booleans(),
    )
    @settings(max_examples=80)
    def test_delivered_bytes_or_truncation(self, sent, capacity, kind, recv_first):
        fabric = Fabric(1, watchdog_seconds=2.0)
        ep = fabric.endpoint(0)
        buffer = self.BUFFERS[kind](capacity)
        if recv_first:
            rh = ep.post_recv(0, 0, buffer)
            sh = ep.post_send(0, 0, sent)
        else:
            sh = ep.post_send(0, 0, sent)
            rh = ep.post_recv(0, 0, buffer)
        if len(sent) > capacity:
            for h in (rh, sh):
                with pytest.raises(MessageTruncation):
                    ep.wait_all([h])
            assert rh.payload is None
            assert bytes(buffer) == _FILL * capacity
        else:
            ep.wait_all([rh, sh])
            assert rh.payload == sent
            assert bytes(buffer) == sent + _FILL * (capacity - len(sent))
        fabric.assert_drained()

    @given(st.integers(1, 40), st.integers(0, 3))
    @settings(max_examples=20)
    def test_payload_views_a_float_buffer(self, sites, spare):
        # a halo inbox: float64 values received into a two-dimensional array
        fabric = Fabric(1, watchdog_seconds=2.0)
        ep = fabric.endpoint(0)
        values = np.arange(sites * 3, dtype=np.float64).reshape(sites, 3)
        inbox = np.zeros((sites + spare, 3))
        rh = ep.post_recv(0, 0, inbox)
        ep.wait_all([rh, ep.post_send(0, 0, values)])
        assert np.array_equal(inbox[:sites], values)
        assert not inbox[sites:].any()
        assert len(rh.payload) == values.nbytes
        inbox[0, 0] = -1.0  # the payload is the buffer, not a copy of it
        assert bytes(rh.payload[:8]) == np.float64(-1.0).tobytes()

    def test_read_only_buffer_is_refused(self):
        fabric = Fabric(1)
        with pytest.raises(ValueError):
            fabric.endpoint(0).post_recv(0, 0, b"12345678")
        assert fabric.pending_summary() == []


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
        rh = ep1.post_recv(0, 3, bytearray(8))
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
        rh = ep1.post_recv(0, 4, bytearray(8))
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
        ep1.post_recv(0, 1, bytearray(8))
        assert notified == []  # nothing matched
        ep1.post_recv(0, 0, bytearray(8))  # completes rank 0's send
        ep0.post_send(1, 1, b"b")  # completes rank 1's receive
        assert notified == [0, 1]
        ep0.post_recv(0, 2, bytearray(8))
        ep0.post_send(0, 2, b"c")  # a self-message wakes no one
        assert notified == [0, 1]
        fabric.abort("done")
        assert notified == [0, 1, 0, 1]


class _SleepSignal(threading.Condition):
    """A rank's fabric condition that signals when a wait sleeps on it."""

    def __init__(self, lock):
        super().__init__(lock)
        self.sleeping = threading.Event()

    def wait(self, timeout=None):
        self.sleeping.set()
        return super().wait(timeout)


class FabricMachine(RuleBasedStateMachine):
    """Random posts and waits on a 2-rank fabric.

    A model predicts the FIFO pairing of sends and receives per (source,
    dest, tag).  Waits on the machine's thread only ever name matched
    handles, so they do not block; a wait that blocks runs on a helper
    thread (``blocked_wait``).  The short watchdog turns a wrongly pending
    handle into a failure.  Every payload starts with a serial number, so
    a FIFO slip changes the delivered bytes.  Once the fabric is aborted,
    with complete handles outstanding, every post and wait must raise
    ``TransportAborted``.  Under a cost model (``model``), each send's ready
    time must follow its sender's injection pipe, its receive must share
    it, and no wait may return a handle before that time.
    """

    ranks = st.integers(0, 1)
    tags = st.integers(0, 2)
    model = None

    def __init__(self):
        super().__init__()
        self.fabric = Fabric(2, watchdog_seconds=0.5, model=self.model)
        self.fabric._conds = [_SleepSignal(self.fabric._lock) for _ in range(2)]
        self.eps = [self.fabric.endpoint(0), self.fabric.endpoint(1)]
        self.serial = 0
        self.sends = defaultdict(deque)  # key -> unmatched (handle, bytes, array)
        self.recvs = defaultdict(deque)  # key -> unmatched (handle, buffer)
        self.pairs = []  # (send, recv, bytes sent, array or None, buffer, truncated)
        self.fresh = []  # completed handles no wait_any has returned yet
        self.pipe_free = [0.0, 0.0]  # when each sender's pipe frees, by the model
        self.aborted = False

    def _post_send(self, src, dest, tag, payload, nbytes):
        t0 = time.perf_counter()
        sh = self.eps[src].post_send(dest, tag, payload)
        t1 = time.perf_counter()
        if self.model is None:
            assert sh._ready is None
        else:
            # ready = max(now, pipe free) + delay, for some now in [t0, t1]
            free, delay = self.pipe_free[src], self.model.delay(nbytes)
            assert max(t0, free) + delay <= sh._ready <= max(t1, free) + delay
            self.pipe_free[src] = sh._ready
        return sh

    def _match(self, send, recv):
        (sh, sent, array), (rh, buffer) = send, recv
        truncated = len(sent) > len(buffer)
        self.pairs.append((sh, rh, sent, array, buffer, truncated))
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
        if self.aborted:
            with pytest.raises(TransportAborted):
                self.eps[src].post_send(dest, tag, payload)
            return
        sh = self._post_send(src, dest, tag, payload, len(sent))
        key = (src, dest, tag)
        if self.recvs[key]:
            self._match((sh, sent, array), self.recvs[key].popleft())
        else:
            self.sends[key].append((sh, sent, array))

    @rule(dest=ranks, src=ranks, tag=tags, capacity=st.integers(0, 200))
    def post_recv(self, dest, src, tag, capacity):
        # filled, so the invariant below sees which bytes a delivery wrote
        buffer = bytearray(_FILL * capacity)
        if self.aborted:
            with pytest.raises(TransportAborted):
                self.eps[dest].post_recv(src, tag, buffer)
            return
        rh = self.eps[dest].post_recv(src, tag, buffer)
        key = (src, dest, tag)
        if self.sends[key]:
            self._match(self.sends[key].popleft(), (rh, buffer))
        else:
            self.recvs[key].append((rh, buffer))

    # capacity from 44, the serial and the longest body, so nothing truncates
    @precondition(lambda self: not self.aborted)
    @rule(src=ranks, tag=tags, body=st.binary(max_size=40), capacity=st.integers(44, 200))
    def blocked_wait(self, src, tag, body, capacity):
        # dest waits on a receive with nothing to match it until the send
        # below is posted, which must wake it well inside the watchdog
        dest = 1 - src
        key = (src, dest, tag)
        if self.sends[key] or self.recvs[key]:
            return  # the send would not be this receive's match
        self.serial += 1
        sent = self.serial.to_bytes(4, "little") + body
        buffer = bytearray(_FILL * capacity)
        rh = self.eps[dest].post_recv(src, tag, buffer)
        box = {}

        def wait():
            try:
                self.eps[dest].wait_all([rh])
                box["payload"] = rh.payload
            except Exception as exc:  # handed to the machine's thread below
                box["error"] = exc

        cond = self.fabric._conds[dest]
        cond.sleeping.clear()
        helper = threading.Thread(target=wait, daemon=True)
        helper.start()
        assert cond.sleeping.wait(timeout=2.0), "the helper never slept in its wait"
        sh = self._post_send(src, dest, tag, sent, len(sent))
        helper.join(timeout=2.0)
        assert not helper.is_alive()
        assert box == {"payload": sent}
        self._match((sh, sent, None), (rh, buffer))

    @precondition(lambda self: self.fresh)
    @rule(data=st.data(), rank=ranks)
    def wait_any(self, data, rank):
        handles = data.draw(st.lists(st.sampled_from(self.fresh), min_size=1, unique=True))
        ep = self.eps[rank]
        if self.aborted:
            with pytest.raises(TransportAborted):
                ep.wait_any(handles)
            return
        seen = []
        for _ in handles:
            seen.append(ep.wait_any(handles))
            assert handles[seen[-1]].state == "complete"  # modelled time included
        assert sorted(seen) == list(range(len(handles)))
        with pytest.raises(UsageError):
            ep.wait_any(handles)
        self.fresh = [h for h in self.fresh if h not in handles]

    @precondition(lambda self: self.pairs)
    @rule(data=st.data(), rank=ranks)
    def wait_all(self, data, rank):
        sh, rh, sent, array, _, truncated = data.draw(st.sampled_from(self.pairs))
        ep = self.eps[rank]
        if self.aborted:
            with pytest.raises(TransportAborted):
                ep.wait_all([sh, rh])
            return
        if truncated:
            for h in (sh, rh):
                with pytest.raises(MessageTruncation):
                    ep.wait_all([h])
            return
        ep.wait_all([sh, rh])
        assert sh.state == rh.state == "complete"
        if array is not None:
            array += 1  # the send has completed, so its buffer is the sender's again

    @initialize(sends=st.integers(1, 12))
    def abort_after(self, sends):
        # the abort is held back until this many sends have been posted, so
        # runs keep a stretch of traffic before it (or never abort at all)
        self.abort_at = sends

    @precondition(lambda self: self.fresh and not self.aborted and self.serial >= self.abort_at)
    @rule()
    def abort(self):
        self.fabric.abort("state machine abort")
        self.aborted = True

    @invariant()
    def delivered_bytes_equal_sent_bytes(self):
        # a delivery lands in the leading bytes of the receiver's buffer and
        # leaves the rest alone; a truncated one leaves all of it alone
        for _, rh, sent, _, buffer, truncated in self.pairs:
            assert rh.payload == (None if truncated else sent)
            kept = 0 if truncated else len(sent)
            assert buffer[:kept] == sent[:kept]
            assert buffer[kept:] == _FILL * (len(buffer) - kept)

    @invariant()
    def a_receive_completes_with_its_send(self):
        for sh, rh, *_ in self.pairs:
            assert rh._ready == sh._ready

    @invariant()
    def unmatched_requests_are_the_model_queues(self):
        expected = [("send", s, d, t) for (s, d, t), q in self.sends.items() for _ in q]
        expected += [("recv", s, d, t) for (s, d, t), q in self.recvs.items() for _ in q]
        assert self.fabric.pending_summary() == sorted(expected)

    def teardown(self):
        # match every leftover request, then shutdown must find nothing pending
        if self.aborted:
            return  # no post can match anything now; the rules checked that
        handles = []
        for (src, dest, tag), q in self.sends.items():
            handles.extend(self.eps[dest].post_recv(src, tag, bytearray(200)) for _ in q)
        for (src, dest, tag), q in self.recvs.items():
            handles.extend(self.eps[src].post_send(dest, tag, b"") for _ in q)
        self.eps[0].wait_all(handles)
        self.fabric.assert_drained()


TestFabricMachine = FabricMachine.TestCase


class ModelledFabricMachine(FabricMachine):
    """The same machine on a fabric with a cost model, so that every post
    also sets a ready time and every wait may have to wait it out."""

    model = TransportModel(latency_s=20e-6, bandwidth_MBps=1e4)


TestModelledFabricMachine = ModelledFabricMachine.TestCase


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
                ep1.post_recv(0, i, bytearray(len(payload)))
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
        rh = ep.post_recv(0, 0, bytearray(8))
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
            handles.append(ep.post_recv(0, tag, bytearray(8)))
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

    def test_rank_deadlock_reaches_the_caller(self):
        # a watchdog far below one trip stalls a rank; its error, not a
        # corrupted-echo assertion, must reach the caller
        with pytest.raises(TransportDeadlock):
            ping_pong(65536, 200, watchdog_seconds=1e-9)

    def test_elapsed_roughly_linear_in_round_trips(self):
        smalls = [ping_pong(65536, 40).elapsed_s for _ in range(3)]
        bigs = [ping_pong(65536, 400).elapsed_s for _ in range(3)]
        ratio = min(bigs) / min(smalls)
        shown = [", ".join(f"{t * 1e3:.2f}" for t in ts) for ts in (smalls, bigs)]
        assert 10 / 2 <= ratio <= 10 * 2, (
            f"ratio {ratio:.2f} of best-of-3 elapsed times; "
            f"40 trips [{shown[0]}] ms, 400 trips [{shown[1]}] ms"
        )

    def test_sweep_monotone_then_plateau(self):
        samples = bandwidth_sweep(sizes=[1024 << k for k in range(11)])
        assert all(s.bandwidth_MBps > 0 for s in samples)
        plateau = detect_plateau(samples)
        level = plateau_level(samples)
        shown = describe_sweep(samples, level, plateau)
        # once saturated, the curve never drops below half the sustained level
        for s in samples:
            if s.message_bytes >= plateau.message_bytes:
                assert s.bandwidth_MBps >= 0.5 * level, (
                    f"{s.message_bytes} B below half the level\n{shown}")
        # and it genuinely rose to get there
        smallest = min(samples, key=lambda s: s.message_bytes)
        assert smallest.bandwidth_MBps < level, f"smallest size reaches the level\n{shown}"
