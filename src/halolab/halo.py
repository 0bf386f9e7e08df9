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
  plane into the halo shell as it arrives and the edges and corners
  together once the last receive is in, then drain the sends).

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

The exchange is the only code that writes halo values (``lattice.stream``
and ``collide`` write interiors), and the physics loop rests on two facts.
Every exchange rewrites each halo value that faces a neighbour before
``stream`` reads it.  A value past an open edge is 0.0 from allocation on:
the only writes that reach it are the blocking stages' forwarded zeros.

Each strategy is a (start, end) pair in ``STRATEGIES``: blocking's start
is the whole staged exchange and its end has nothing left to do, the way
MPI treats a blocking call as a request that is already complete.
``exchange`` runs the start and then the end; ``overlap.step_with_overlap``
and the benchmark step put their work between the two.

HaloBuffers fixes every message of both strategies once per rank: peer,
message ids, send and halo slices, a send buffer and a receive buffer
(its inbox), each with the byte view that is posted.  Per strategy the
send buffers are consecutive slices of one send arena and the inboxes of
one receive arena; the strategies share the two arenas, so a HaloBuffers
runs one exchange at a time, and a start while a non-blocking exchange
has not ended is a UsageError.  A message is packed into its send
buffer, posted without a copy, copied once by the fabric on delivery into
the receiver's inbox and unpacked from there into the halo slice; a send
buffer is not rewritten before its send has completed, nor an inbox read
before its receive has.

The pack rule.  A plane carries Ly*Lz sites or the like, so its cost
grows as L^2 and each plane is packed and unpacked by its own copy
through ``data``.  An edge carries L sites and a corner one, so at any L
these 20 cost what a numpy call costs, not what their bytes cost; they
are packed by one gather and unpacked by one scatter through flat
indices into the field's ``store``.  Their buffers follow the planes',
so the gather fills, and the scatter reads, one contiguous run.  The blocking
strategy packs and unpacks each of its 6 messages by its own copy.

Pack order is canonical: ascending (x, y, z) site order, ascending
component within a site.  Buffers are C-ordered (x, y, z, component)
arrays filled from and emptied into the field's site-major ``data`` view,
or by the gather and scatter indices, which list the same order, so the
order holds whatever the storage order; with component-major storage
every pack and unpack is a transposing copy.  A message's tag is
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
from functools import lru_cache
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


@lru_cache(maxsize=64)
def _plan(local_dims):
    """(send slices, halo slices, extent) of the 26 direct messages in
    displacement order and of the 6 staged messages in send order, by the
    one rule above; the extent is the slices' lengths.  Cached: the plan
    is a pure function of the local dimensions."""
    # per axis: (send, halo) slice pair by d, and the pair of a whole axis
    sides, wholes = [], []
    for n in local_dims:
        sides.append({-1: (slice(1, 2), slice(0, 1)), 0: (slice(1, n + 1),) * 2,
                      1: (slice(n, n + 1), slice(n + 1, n + 2))})
        wholes.append((slice(0, n + 2),) * 2)

    def message(d, whole):
        pairs = [wholes[a] if a < whole else sides[a][d[a]] for a in range(3)]
        send, halo = zip(*pairs)
        return send, halo, tuple(s.stop - s.start for s in send)

    return (tuple(message(d, 0) for d in DISPLACEMENTS),
            tuple(message(d, k // 2) for k, d in enumerate(_STAGED)))


def nonblocking_message_sites(local_dims):
    """Site count of each of the 26 direct messages, displacement order."""
    return [prod(extent) for *_, extent in _plan(local_dims)[0]]


def blocking_message_sites(local_dims):
    """Site count of each of the 6 staged messages, stage order (X, Y, Z)."""
    return [prod(extent) for *_, extent in _plan(local_dims)[1]]


class Message(NamedTuple):
    """One message of an exchange, fixed for the life of its HaloBuffers.

    The send goes to ``peer`` with ``send_id``; the receive from the same
    peer carries ``recv_id``, lands in ``inbox`` and is unpacked into
    ``halo_slices``, which has the shape of ``buffer`` and ``inbox``.
    ``view`` and ``inbox_view`` are their byte views, posted by the send and
    the receive.
    """

    peer: int
    send_id: int
    recv_id: int
    send_slices: tuple
    halo_slices: tuple
    buffer: np.ndarray
    view: memoryview
    inbox: np.ndarray
    inbox_view: memoryview


def _messages(specs, m, out, inbox):
    """The Messages of (peer, send_id, recv_id, plan entry) specs, in order;
    their buffers and inboxes are consecutive slices of the arenas ``out``
    and ``inbox`` from the start."""
    out_bytes, in_bytes = memoryview(out).cast("B"), memoryview(inbox).cast("B")
    messages, a = [], 0
    for peer, send_id, recv_id, (send, halo, extent) in specs:
        shape = extent + (m,)
        b = a + prod(shape)
        messages.append(Message(peer, send_id, recv_id, send, halo,
                                out[a:b].reshape(shape), out_bytes[8 * a:8 * b],
                                inbox[a:b].reshape(shape), in_bytes[8 * a:8 * b]))
        a = b
    return messages


@lru_cache(maxsize=64)
def _gather_plan(local_dims, m, ids):
    """Flat store indices (send, halo) of the direct messages ``ids``, in
    that order and each in canonical order: sites ascending, then the
    components of a site.  Cached like ``_plan``: read-only arrays."""
    shape = tuple(n + 2 for n in local_dims)
    sites = np.arange(prod(shape)).reshape(shape)
    # component c of site s sits at c * sites.size + s in the store
    components = sites.size * np.arange(m)
    direct = _plan(local_dims)[0]
    indices = []
    for side in (0, 1):
        site = np.concatenate([sites[direct[i][side]] for i in ids] or [sites[:0]], axis=None)
        index = (site[:, None] + components).ravel()
        index.flags.writeable = False
        indices.append(index)
    return tuple(indices)


class HaloBuffers:
    """Persistent staging arrays and message plans for one rank's exchanges.

    ``direct`` holds the active messages of the 26-message exchange in post
    order (planes, edges, corners) and ``stages`` the active messages of
    each blocking stage; peers past an open edge are left out.  Their
    buffers share the two arenas (see above), and ``token`` holds the
    non-blocking exchange in flight, or None.  The first ``planes`` direct
    messages are the planes; the rest, the edges and corners, are packed by
    one gather of ``send_index`` into ``gathered`` and unpacked by one
    scatter of ``scattered`` to ``halo_index``, both flat indices of the
    field's ``store``.
    """

    def __init__(self, topo, rank, local_dims, m, endpoint):
        self.local_dims = dims = tuple(int(v) for v in local_dims)
        self.m = m = int(m)
        if min(self.local_dims) < 1:
            raise ConfigurationError("local dimensions must be at least 1")
        self.endpoint = endpoint
        full = topo.full_neighbours(rank)
        direct, staged = _plan(dims)
        specs = [
            (full[idx], idx, OPPOSITE_DISPLACEMENT[idx], direct[idx])
            for idx in GROUP_PLANES + GROUP_EDGES + GROUP_CORNERS
            if full[idx] != NO_NEIGHBOUR
        ]
        # the halo on each side carries the neighbour's opposite-travel send
        peers = [full[displacement_index(d)] for d in _STAGED]
        staged_specs = [(peers[k], 26 + k, 26 + (k ^ 1), staged[k])
                        for k in range(6) if peers[k] != NO_NEIGHBOUR]
        direct_size, staged_size = (
            m * sum(prod(extent) for *_, (_, _, extent) in group) for group in (specs, staged_specs))
        # one exchange is in flight at a time, so the two strategies share
        # the arenas; left unset, since a send buffer is packed before it is
        # posted and an inbox is read only after its delivery
        size = max(direct_size, staged_size)
        arena = np.empty(2 * size)
        out, inbox = arena[:size], arena[size:]
        self.direct = _messages(specs, m, out, inbox)
        self.planes = sum(idx in GROUP_PLANES for _, idx, _, _ in specs)
        self.send_index, self.halo_index = _gather_plan(
            dims, m, tuple(idx for _, idx, _, _ in specs[self.planes:]))
        # the edges and corners end the direct messages
        tail = slice(direct_size - self.send_index.size, direct_size)
        self.gathered, self.scattered = out[tail], inbox[tail]
        staged_msgs = _messages(staged_specs, m, out, inbox)
        self.stages = [[msg for msg in staged_msgs if (msg.send_id - 26) // 2 == dim]
                       for dim in range(3)]
        self.token = None

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


def _check_idle(field, buffers):
    buffers.check_field(field)
    if buffers.token is not None:
        raise UsageError("a non-blocking exchange on these buffers has not ended")


def _post_receives(ep, messages):
    return [ep.post_recv(msg.peer, msg.recv_id, msg.inbox_view) for msg in messages]


def _post_sends(ep, messages, data=None):
    """Post each message's send, packing it from ``data`` first unless
    ``data`` is None (already packed)."""
    handles = []
    for msg in messages:
        if data is not None:
            msg.buffer[...] = data[msg.send_slices]
        handles.append(ep.post_send(msg.peer, msg.send_id, msg.view))
    return handles


def exchange_nonblocking_start(field, topo, buffers):
    """Post the receives, then pack and post each send; never waits.

    Receives go up first so every send can match immediately.  Each plane
    is posted as soon as its buffer is packed; then one gather packs the
    edges and corners and their sends are posted.  Returns the token for
    exchange_nonblocking_end.
    """
    _check_idle(field, buffers)
    ep = buffers.endpoint
    direct = buffers.direct
    recvs = _post_receives(ep, direct)
    sends = _post_sends(ep, direct[:buffers.planes], field.data)
    np.take(field.store.reshape(-1), buffers.send_index, out=buffers.gathered, mode="clip")
    sends += _post_sends(ep, direct[buffers.planes:])
    buffers.token = ExchangeToken(recvs, sends)
    return buffers.token


def exchange_nonblocking_end(token, field, buffers):
    """Drain the receives via repeated wait_any, unpacking each plane as it
    arrives and scattering the edges and corners once the last receive has
    been consumed, then drain the sends.

    Each drain runs over a shrinking working copy of its handle list: the
    handle that wait_any returns is popped (with its message), so every
    call scans only handles still in flight.  ``token`` is left intact.
    """
    buffers.check_field(field)
    if token is not buffers.token:
        raise UsageError("exchange token is not the exchange in flight on these buffers")
    ep = buffers.endpoint
    data = field.data
    recvs = list(token.recvs)
    messages = list(buffers.direct)
    planes = buffers.planes  # the planes still in flight lead both lists
    try:
        while recvs:
            i = ep.wait_any(recvs)
            del recvs[i]
            msg = messages.pop(i)
            if i < planes:
                planes -= 1
                data[msg.halo_slices] = msg.inbox
    except TransportDeadlock as exc:
        # the drain has popped every consumed receive, so what is left is outstanding
        outstanding = sorted(HaloNeighbour(msg.send_id).name for msg in messages)
        raise TransportDeadlock(
            f"non-blocking end stalled; outstanding receives: {outstanding}",
            pending=exc.pending,
        ) from exc
    field.store.reshape(-1)[buffers.halo_index] = buffers.scattered
    sends = list(token.sends)
    while sends:
        sends.pop(ep.wait_any(sends))
    buffers.token = None


def exchange_blocking(field, topo, buffers):
    """Staged 6-message exchange: per dimension post receives, pack, send, wait.

    Each stage blocks on its own wait_all before the next begins, so the
    whole exchange waits exactly three times.
    """
    _check_idle(field, buffers)
    ep = buffers.endpoint
    data = field.data
    for dim, messages in enumerate(buffers.stages):
        recvs = _post_receives(ep, messages)
        sends = _post_sends(ep, messages, data)
        try:
            ep.wait_all(recvs + sends)
        except TransportDeadlock as exc:
            raise TransportDeadlock(
                f"blocked in {_STAGE_NAMES[dim]} stage: {exc}", pending=exc.pending
            ) from exc
        for msg in messages:
            data[msg.halo_slices] = msg.inbox


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
