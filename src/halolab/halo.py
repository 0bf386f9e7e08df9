"""Halo-exchange protocols over the transport fabric.

Two strategies fill the one-site halo shell of a DistributionField:

* staged blocking: three stages (X, then Y, then Z) of two messages each.
  The Y stage sends (Lx+2)*Lz columns including the X halo just received
  and the Z stage sends full (Lx+2)*(Ly+2) slabs; this transitive
  forwarding is what lets 6 messages deliver all 26 neighbour
  contributions and must not be trimmed to interior-only buffers.
* non-blocking: 26 direct messages (6 planes, 12 edges, 8 corners), split
  into a start (post all receives, pack and post each send, no wait of
  any kind) and an end (drain the receives via wait_any, unpacking each
  one into the halo shell as it arrives, then drain the sends).

One rule gives the geometry of all 32 messages.  A message is a
displacement ``d`` toward its peer plus the number ``whole`` of leading
axes it sends whole; per axis of interior extent n its (send, halo)
slices are

* ``0:n+2`` for both, on an axis below ``whole``;
* ``1:n+1`` for both, where ``d`` is 0;
* send ``1:2``, fill ``0:1``, where ``d`` is -1;
* send ``n:n+1``, fill ``n+1:n+2``, where ``d`` is +1.

A direct message has ``whole = 0``; blocking stage ``dim`` sends the two
face displacements along ``dim`` with ``whole = dim``, so the axes swept
by earlier stages travel with their halos and edges and corners arrive by
forwarding.  Each buffer's shape is its slices' lengths, and both
strategies move exactly the same bytes per exchange and leave
bit-identical halo shells.  All m components of every boundary site are
exchanged, corners included, regardless of the velocity model.

Each strategy is a (start, end) pair in ``STRATEGIES``: blocking's start
is the whole staged exchange and its end has nothing left to do, the way
MPI treats a blocking call as a request that is already complete.
``exchange`` runs the start and then the end; ``overlap.step_with_overlap``
and the benchmark step put their work between the two.

HaloBuffers fixes every message of both strategies once per rank: peer,
message ids, send and halo slices, and a send buffer with the byte view
that is posted.  A message is packed into its send buffer, posted without
a copy, copied once by the fabric on delivery and unpacked from the
received bytes straight into the halo slice; a send buffer is not
rewritten before its send has completed.

Pack order is canonical: ascending (x, y, z) site order, ascending
component within a site.  Buffers are C-ordered (x, y, z, component)
arrays filled from and emptied into the field's site-major ``data`` view,
so the order holds whatever the storage order; with component-major
storage every pack and unpack is a transposing copy.  A message's tag is
its message id: 0..25, the non-blocking displacement indices, and 26..31,
the blocking stage messages (``26 + k`` for the k-th staged send, X-, X+,
Y-, Y+, Z-, Z+), which keeps a rank's own messages distinguishable when
it exchanges with itself on single-rank-per-dimension periodic grids.
The tags are the same in every exchange and carry no sequence number: the
fabric matches FIFO per (source, tag), MPI's non-overtaking rule, and
every send is synchronous, so a message of the next exchange cannot be
posted until the receive of this exchange with the same (source, tag) has
matched.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod
from typing import NamedTuple

import numpy as np

from .errors import ConfigurationError, TransportDeadlock, UsageError
from .topology import (
    DISPLACEMENTS,
    HaloNeighbour,
    NO_NEIGHBOUR,
    OPPOSITE_DISPLACEMENT,
    displacement_index,
)

# displacement indices of the 6 planes, 12 edges and 8 corners
GROUP_PLANES, GROUP_EDGES, GROUP_CORNERS = (
    tuple(i for i, d in enumerate(DISPLACEMENTS) if sum(map(abs, d)) == n) for n in (1, 2, 3)
)

_STAGE_NAMES = ("X", "Y", "Z")

# the 6 staged displacements in send order: the k-th is stage k // 2 toward
# -1 (k even) or +1 (k odd), sent with id 26 + k
_STAGED = ((-1, 0, 0), (1, 0, 0), (0, -1, 0), (0, 1, 0), (0, 0, -1), (0, 0, 1))


@dataclass
class ExchangeCounters:
    """Instrumentation for the bench harness: message, byte and wait counts."""

    sends: int = 0
    bytes_sent: int = 0
    waits: int = 0

    def reset(self):
        self.sends = self.bytes_sent = self.waits = 0

    def snapshot(self):
        return ExchangeCounters(self.sends, self.bytes_sent, self.waits)


def _plan(local_dims):
    """(send, halo) slices of the 26 direct messages in displacement order
    and of the 6 staged messages in send order, by the one rule above."""
    # per axis: (send, halo) slice pair by d, and the pair of a whole axis
    sides, wholes = [], []
    for n in local_dims:
        sides.append({-1: (slice(1, 2), slice(0, 1)), 0: (slice(1, n + 1),) * 2,
                      1: (slice(n, n + 1), slice(n + 1, n + 2))})
        wholes.append((slice(0, n + 2),) * 2)

    def message(d, whole):
        pairs = [wholes[a] if a < whole else sides[a][d[a]] for a in range(3)]
        return tuple(zip(*pairs))

    return ([message(d, 0) for d in DISPLACEMENTS],
            [message(d, k // 2) for k, d in enumerate(_STAGED)])


def _extent(slices):
    return tuple(s.stop - s.start for s in slices)


def nonblocking_message_sites(local_dims):
    """Site count of each of the 26 direct messages, displacement order."""
    return [prod(_extent(send)) for send, _ in _plan(local_dims)[0]]


def blocking_message_sites(local_dims):
    """Site count of each of the 6 staged messages, stage order (X, Y, Z)."""
    return [prod(_extent(send)) for send, _ in _plan(local_dims)[1]]


class Message(NamedTuple):
    """One message of an exchange, fixed for the life of its HaloBuffers.

    The send goes to ``peer`` with ``send_id``; the receive from the same
    peer carries ``recv_id`` and lands in ``halo_slices``, which has the
    shape of ``buffer``.  ``view`` is the buffer's byte view that is posted.
    """

    peer: int
    send_id: int
    recv_id: int
    send_slices: tuple
    halo_slices: tuple
    buffer: np.ndarray
    view: memoryview


def _message(peer, send_id, recv_id, slices, m):
    send, halo = slices
    buffer = np.zeros(_extent(send) + (m,))
    return Message(peer, send_id, recv_id, send, halo, buffer, memoryview(buffer).cast("B"))


class HaloBuffers:
    """Persistent staging arrays and message plans for one rank's exchanges.

    ``direct`` holds the active messages of the 26-message exchange in post
    order (planes, edges, corners) and ``stages`` the active messages of
    each blocking stage; peers past an open edge are left out.  Each
    message has its own send buffer.  Also holds the instrumentation
    counters.
    """

    def __init__(self, topo, rank, local_dims, m, endpoint):
        self.rank = int(rank)
        self.local_dims = dims = tuple(int(v) for v in local_dims)
        self.m = int(m)
        if min(self.local_dims) < 1:
            raise ConfigurationError("local dimensions must be at least 1")
        self.endpoint = endpoint
        full = topo.full_neighbours(rank)
        direct, staged = _plan(dims)
        self.direct = [
            _message(full[idx], idx, OPPOSITE_DISPLACEMENT[idx], direct[idx], self.m)
            for idx in GROUP_PLANES + GROUP_EDGES + GROUP_CORNERS
            if full[idx] != NO_NEIGHBOUR
        ]
        # the halo on each side carries the neighbour's opposite-travel send
        peers = [full[displacement_index(d)] for d in _STAGED]
        self.stages = [
            [_message(peers[k], 26 + k, 26 + (k ^ 1), staged[k], self.m)
             for k in (2 * dim, 2 * dim + 1) if peers[k] != NO_NEIGHBOUR]
            for dim in range(3)
        ]
        self.counters = ExchangeCounters()

    def check_field(self, field):
        if field.local_dims != self.local_dims or field.m != self.m:
            raise ConfigurationError(
                f"field {field.local_dims}/m={field.m} does not match buffers "
                f"{self.local_dims}/m={self.m}"
            )


@dataclass
class ExchangeToken:
    """In-flight non-blocking exchange: its receive and send handles, both
    in ``buffers.direct`` order."""

    recvs: list
    sends: list
    finished: bool = False


def _post_receives(ep, messages):
    return [ep.post_recv(msg.peer, msg.recv_id, len(msg.view)) for msg in messages]


def _pack_and_send(ep, data, messages, counters):
    handles = []
    for msg in messages:
        msg.buffer[...] = data[msg.send_slices]
        handles.append(ep.post_send(msg.peer, msg.send_id, msg.view))
        counters.bytes_sent += len(msg.view)
    counters.sends += len(messages)
    return handles


def _unpack(data, msg, payload):
    data[msg.halo_slices] = np.ndarray(msg.buffer.shape, np.float64, payload)


def exchange_nonblocking_start(field, topo, buffers):
    """Post the receives, then pack and post each send; never waits.

    Receives go up first so every send can match immediately; each send is
    posted as soon as its buffer is packed, planes first, then edges, then
    corners.  Returns the token for exchange_nonblocking_end.
    """
    buffers.check_field(field)
    ep = buffers.endpoint
    recvs = _post_receives(ep, buffers.direct)
    return ExchangeToken(recvs, _pack_and_send(ep, field.data, buffers.direct, buffers.counters))


def exchange_nonblocking_end(token, field, buffers):
    """Drain the receives via repeated wait_any, unpacking each as it
    arrives, then drain the sends.

    Each drain runs over a shrinking working copy of its handle list: the
    handle that wait_any returns is popped (with its message), so every
    call scans only handles still in flight.  ``token`` is left intact.
    """
    buffers.check_field(field)
    if token.finished:
        raise UsageError("exchange token already completed")
    ep = buffers.endpoint
    data = field.data
    recvs = list(token.recvs)
    messages = list(buffers.direct)
    try:
        while recvs:
            i = ep.wait_any(recvs)
            _unpack(data, messages.pop(i), recvs.pop(i).payload)
    except TransportDeadlock as exc:
        # the drain has popped every consumed receive, so what is left is outstanding
        outstanding = sorted(HaloNeighbour(msg.send_id).name for msg in messages)
        raise TransportDeadlock(
            f"non-blocking end stalled; outstanding receives: {outstanding}",
            pending=exc.pending,
        ) from exc
    sends = list(token.sends)
    while sends:
        sends.pop(ep.wait_any(sends))
    buffers.counters.waits += 1  # one logical completion barrier
    token.finished = True


def exchange_blocking(field, topo, buffers):
    """Staged 6-message exchange: per dimension post receives, pack, send, wait.

    Each stage blocks on its own wait_all before the next begins, so the
    whole exchange waits exactly three times.
    """
    buffers.check_field(field)
    ep = buffers.endpoint
    data = field.data
    counters = buffers.counters
    for dim, messages in enumerate(buffers.stages):
        recvs = _post_receives(ep, messages)
        sends = _pack_and_send(ep, data, messages, counters)
        try:
            ep.wait_all(recvs + sends)
        except TransportDeadlock as exc:
            raise TransportDeadlock(
                f"blocked in {_STAGE_NAMES[dim]} stage: {exc}", pending=exc.pending
            ) from exc
        counters.waits += 1
        for msg, h in zip(messages, recvs):
            _unpack(data, msg, h.payload)


def _nothing_to_end(token, field, buffers):
    """Blocking's end: its start has already completed the exchange."""


# strategy name -> (start, end); ``end(start(field, topo, buffers), field, buffers)``
# is one full exchange, and work put between the two overlaps it
STRATEGIES = {
    "blocking": (exchange_blocking, _nothing_to_end),
    "nonblocking": (exchange_nonblocking_start, exchange_nonblocking_end),
}


def exchange(field, topo, buffers, strategy):
    """One full halo exchange: the strategy's start, then its end."""
    try:
        start, end = STRATEGIES[strategy]
    except KeyError:
        raise ConfigurationError(f"unknown halo strategy {strategy!r}") from None
    end(start(field, topo, buffers), field, buffers)
