"""Halo-exchange protocols over the transport fabric: two schedules, one engine.

Two strategies fill the one-site halo shell of a DistributionField, each
a schedule of rounds fixed once per rank by HaloBuffers:

* blocking: three rounds, the X, Y and Z stages, of two messages each.
  The Y stage sends (Lx+2)*Lz columns including the X halo just received
  and the Z stage sends full (Lx+2)*(Ly+2) slabs; this transitive
  forwarding is what lets 6 messages deliver all 26 neighbour
  contributions and must not be trimmed to interior-only buffers.
* non-blocking: one direct round of 26 messages (6 planes, 12 edges,
  8 corners).

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

One engine runs both.  ``_post`` posts a round's receives, so that every
send can match at once, then packs and posts each send; ``_complete``
waits for the round and unpacks it, and only then is the next round
posted.  A start posts the first round and completes as many rounds as
its strategy says (blocking three, non-blocking none); ``exchange_end``
completes the rest, draining each round so that work put between the
start and the end overlaps it.  A start that leaves nothing returns None,
like MPI's null request, and the end does nothing on it.

HaloBuffers fixes every message of both schedules once per rank: peer,
message ids, send and halo slices, a send buffer and a receive buffer
(its inbox), each with the byte view that is posted.  Per schedule the
send buffers are consecutive slices of one send arena and the inboxes of
one receive arena; the schedules share the two arenas, so a HaloBuffers
runs one exchange at a time, and a start while a non-blocking exchange
has not ended is a UsageError.  A message is packed into its send
buffer, posted without a copy, copied once by the fabric on delivery into
the receiver's inbox and unpacked from there into the halo slice; a send
buffer is not rewritten before its send has completed, nor an inbox read
before its receive has.

The pack rule.  A round copies its leading messages: each is packed and
unpacked by its own copy through ``data``.  It gathers the rest: one
gather packs them and one scatter unpacks them, through flat indices into
the field's ``store``, and their buffers end the round's run of each
arena, so the gather fills, and the scatter reads, one contiguous run.  A
plane carries Ly*Lz sites or the like, so its cost grows as L^2, and the
direct round copies its 6 planes.  An edge carries L sites and a corner
one, so at any L these 20 cost what a numpy call costs, not what their
bytes cost, and the direct round gathers them.  The stages copy all 6.

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

# the 6 staged displacements in send order: the k-th is stage k // 2 toward
# -1 (k even) or +1 (k odd), sent with id 26 + k
_STAGED = ((-1, 0, 0), (1, 0, 0), (0, -1, 0), (0, 1, 0), (0, 0, -1), (0, 0, 1))

# message id -> index of the displacement toward the message's peer
_TOWARD = tuple(range(26)) + tuple(displacement_index(d) for d in _STAGED)


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


class Round(NamedTuple):
    """One round of a schedule: its ``messages`` in post order, ``copied``
    then ``gathered`` (see the pack rule), and the gather's flat store
    indices ``send_index`` into ``buffer`` and the scatter's from ``inbox``
    to ``halo_index``, the gathered messages' run of each arena."""

    name: str
    messages: list
    copied: list
    gathered: list
    send_index: np.ndarray
    halo_index: np.ndarray
    buffer: np.ndarray
    inbox: np.ndarray


def _schedule(rounds, local_dims, m, out, inbox):
    """The Rounds of (name, specs, copied) triples; a spec is (peer, send_id,
    recv_id, plan entry).  Buffers and inboxes are consecutive slices of the
    arenas ``out`` and ``inbox`` from the start, in message order."""
    out_bytes, in_bytes = memoryview(out).cast("B"), memoryview(inbox).cast("B")
    schedule, a = [], 0
    for name, specs, copied in rounds:
        messages = []
        for peer, send_id, recv_id, (send, halo, extent) in specs:
            shape = extent + (m,)
            b = a + prod(shape)
            messages.append(Message(peer, send_id, recv_id, send, halo,
                                    out[a:b].reshape(shape), out_bytes[8 * a:8 * b],
                                    inbox[a:b].reshape(shape), in_bytes[8 * a:8 * b]))
            a = b
        gathered = messages[copied:]
        send_index, halo_index = _gather_plan(local_dims, m, tuple(msg.send_id for msg in gathered))
        run = slice(a - send_index.size, a)
        schedule.append(Round(name, messages, messages[:copied], gathered,
                              send_index, halo_index, out[run], inbox[run]))
    return schedule


class HaloBuffers:
    """Persistent staging arrays and message schedules for one rank's exchanges.

    ``schedules`` maps "blocking" to the X, Y and Z stages and
    "nonblocking" to the direct round (planes, then edges and corners).
    Rounds hold active messages only: peers past an open edge are left out.
    ``token`` holds the exchange in flight, or None.
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
        planes = sum(idx in GROUP_PLANES for _, idx, _, _ in specs)
        # the halo on each side carries the neighbour's opposite-travel send
        peers = [full[displacement_index(d)] for d in _STAGED]
        stages = [[(peers[k], 26 + k, 26 + (k ^ 1), staged[k])
                   for k in (2 * dim, 2 * dim + 1) if peers[k] != NO_NEIGHBOUR]
                  for dim in range(3)]
        # one exchange is in flight at a time, so the two schedules share
        # the arenas; left unset, since a send buffer is packed before it is
        # posted and an inbox is read only after its delivery
        size = m * max(sum(prod(extent) for *_, (_, _, extent) in group)
                       for group in (specs, sum(stages, [])))
        arena = np.empty(2 * size)
        out, inbox = arena[:size], arena[size:]
        self.schedules = {
            "blocking": _schedule([(f"{axis} stage", group, len(group))
                                   for axis, group in zip("XYZ", stages)], dims, m, out, inbox),
            "nonblocking": _schedule([("direct round", specs, planes)], dims, m, out, inbox),
        }
        self.token = None

    def check_field(self, field):
        if field.local_dims != self.local_dims or field.m != self.m:
            raise ConfigurationError(
                f"field {field.local_dims}/m={field.m} does not match buffers "
                f"{self.local_dims}/m={self.m}"
            )


def _post(ep, rnd, field):
    """Post the round's receives, then pack and post each send; returns the
    handles, the receives and then the sends, each in message order."""
    handles = [ep.post_recv(msg.peer, msg.recv_id, msg.inbox_view) for msg in rnd.messages]
    data = field.data
    for msg in rnd.copied:
        msg.buffer[...] = data[msg.send_slices]
        handles.append(ep.post_send(msg.peer, msg.send_id, msg.view))
    if rnd.gathered:
        np.take(field.store, rnd.send_index, out=rnd.buffer, mode="clip")
        handles += [ep.post_send(msg.peer, msg.send_id, msg.view) for msg in rnd.gathered]
    return handles


def _complete(ep, rnd, handles, field, drain):
    """Wait for the posted round and unpack it: by one wait_all, or in the
    end (``drain``) by wait_any over working copies of the handle lists,
    popping each handle it returns so every call scans only those in flight."""
    data = field.data
    try:
        if drain:
            # the copied messages still in flight lead both lists
            n = len(rnd.messages)
            pending, sends, landing = handles[:n], handles[n:], list(rnd.copied)
            copied = len(landing)
            while pending:
                i = ep.wait_any(pending)
                del pending[i]
                if i < copied:
                    copied -= 1
                    msg = landing.pop(i)
                    data[msg.halo_slices] = msg.inbox
            while sends:
                sends.pop(ep.wait_any(sends))
        else:
            ep.wait_all(handles)
            for msg in rnd.copied:
                data[msg.halo_slices] = msg.inbox
    except TransportDeadlock as exc:
        outstanding = sorted(HaloNeighbour(_TOWARD[msg.send_id]).name
                             for msg, h in zip(rnd.messages, handles) if h.state == "pending")
        raise TransportDeadlock(
            f"blocked in {rnd.name}; outstanding receives: {outstanding}", pending=exc.pending
        ) from exc
    # as in _post, a round that gathers nothing skips the call: three empty
    # scatters with their flat views cost ~1.4 us, 4 % of blocking at L=4
    if rnd.gathered:
        field.store.reshape(-1)[rnd.halo_index] = rnd.inbox


def _advance(ep, rounds, handles, field, count, drain):
    """Complete ``count`` of ``rounds``, the first posted with ``handles``,
    posting each next; returns the token (rounds left, handles) or None."""
    for k in range(count):
        _complete(ep, rounds[k], handles, field, drain)
        if k + 1 == len(rounds):
            return None
        handles = _post(ep, rounds[k + 1], field)
    return rounds[count:], handles


def _start(field, buffers, strategy, completed):
    """Post the strategy's first round and complete ``completed`` rounds."""
    buffers.check_field(field)
    if buffers.token is not None:
        raise UsageError("a non-blocking exchange on these buffers has not ended")
    ep, rounds = buffers.endpoint, buffers.schedules[strategy]
    buffers.token = _advance(ep, rounds, _post(ep, rounds[0], field), field, completed, False)
    return buffers.token


def exchange_end(token, field, buffers):
    """Complete the rounds a start left, each by the end's drain; does
    nothing on None, the token of a start that completed its exchange."""
    if token is None:
        return
    buffers.check_field(field)
    if token is not buffers.token:
        raise UsageError("exchange token is not the exchange in flight on these buffers")
    rounds, handles = token
    buffers.token = _advance(buffers.endpoint, rounds, handles, field, len(rounds), True)


def exchange_blocking(field, topo, buffers):
    """The whole staged exchange, each stage waiting once; returns None."""
    return _start(field, buffers, "blocking", 3)


def exchange_nonblocking_start(field, topo, buffers):
    """Post the 26 direct messages, never waiting; returns their token."""
    return _start(field, buffers, "nonblocking", 0)


exchange_nonblocking_end = exchange_end

# strategy name -> (start, end); ``end(start(field, topo, buffers), field, buffers)``
# is one full exchange, and work put between the two overlaps it
STRATEGIES = {
    "blocking": (exchange_blocking, exchange_end),
    "nonblocking": (exchange_nonblocking_start, exchange_end),
}


def exchange(field, topo, buffers, strategy):
    """One full halo exchange: the strategy's start, then its end."""
    try:
        start, end = STRATEGIES[strategy]
    except KeyError:
        raise ConfigurationError(f"unknown halo strategy {strategy!r}") from None
    end(start(field, topo, buffers), field, buffers)
