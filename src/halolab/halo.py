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

Both strategies move exactly the same bytes per exchange and leave
bit-identical halo shells.  All m components of every boundary site are
exchanged, corners included, regardless of the velocity model.

HaloBuffers fixes every message of both strategies once per rank: peer,
message ids, send and halo slices, and a send buffer with the byte view
that is posted.  A message is packed into its send buffer, posted without
a copy, copied once by the fabric on delivery and unpacked from the
received bytes straight into the halo slice; a send buffer is not
rewritten before its send has completed.  ``pack_group``, ``recv_full``
and ``unpack_halo_buffers`` keep the same pack and unpack geometry as a
standalone API over all 26 buffers.

Pack order is canonical: ascending (x, y, z) site order, ascending
component within a site; buffers are C-ordered slices so this falls out
of the storage layout.  Tags are ``sequence*32 + message_id`` where ids
0..25 are the non-blocking displacement indices and 26..31 the blocking
stage messages, which keeps a rank's own messages distinguishable when it
exchanges with itself on single-rank-per-dimension periodic grids.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import ConfigurationError, TransportDeadlock, UsageError
from .topology import (
    BACKWARD,
    DISPLACEMENTS,
    FORWARD,
    HaloNeighbour,
    NO_NEIGHBOUR,
    OPPOSITE_DISPLACEMENT,
    build_neighbour_table,
)

GROUP_PLANES = tuple(
    i for i, d in enumerate(DISPLACEMENTS) if sum(abs(c) for c in d) == 1
)
GROUP_EDGES = tuple(
    i for i, d in enumerate(DISPLACEMENTS) if sum(abs(c) for c in d) == 2
)
GROUP_CORNERS = tuple(
    i for i, d in enumerate(DISPLACEMENTS) if sum(abs(c) for c in d) == 3
)
GROUPS = {"planes": GROUP_PLANES, "edges": GROUP_EDGES, "corners": GROUP_CORNERS}

_TAG_STRIDE = 32
_STAGE_NAMES = ("X", "Y", "Z")


def blocking_message_id(dim, direction):
    """Ids 26..31 for the six staged messages, (dim, travel direction)."""
    return 26 + 2 * dim + direction


@dataclass
class ExchangeCounters:
    """Instrumentation for the bench harness: message, byte and wait counts."""

    sends: int = 0
    recvs: int = 0
    bytes_sent: int = 0
    bytes_received: int = 0
    waits: int = 0

    def reset(self):
        self.sends = self.recvs = 0
        self.bytes_sent = self.bytes_received = 0
        self.waits = 0

    def snapshot(self):
        return ExchangeCounters(
            self.sends, self.recvs, self.bytes_sent, self.bytes_received, self.waits
        )


def _extents(local_dims, d):
    return tuple(1 if d[a] != 0 else local_dims[a] for a in range(3))


def displacement_sites(local_dims, d):
    ex, ey, ez = _extents(local_dims, d)
    return ex * ey * ez


def nonblocking_message_sites(local_dims):
    """Site count of each of the 26 direct messages, displacement order."""
    return [displacement_sites(local_dims, d) for d in DISPLACEMENTS]


def blocking_message_sites(local_dims):
    """Site count of each of the 6 staged messages, stage order (X, Y, Z)."""
    lx, ly, lz = local_dims
    per_stage = (ly * lz, (lx + 2) * lz, (lx + 2) * (ly + 2))
    out = []
    for sites in per_stage:
        out.extend((sites, sites))
    return out


def _direct_slices(local_dims):
    """(send, halo) slices of the 26 direct messages, displacement order.

    A message toward d reads the interior layer on the d side (the whole
    interior along axes where d is 0) and the one from the neighbour at d
    fills the halo layer beyond that side.
    """
    sx, sy, sz = ({-1: slice(1, 2), 0: slice(1, n + 1), 1: slice(n, n + 1)} for n in local_dims)
    hx, hy, hz = ({-1: slice(0, 1), 0: slice(1, n + 1), 1: slice(n + 1, n + 2)} for n in local_dims)
    return [((sx[x], sy[y], sz[z]), (hx[x], hy[y], hz[z])) for x, y, z in DISPLACEMENTS]


def _stage_send_slices(local_dims, dim, direction):
    # dims already swept are sent whole (halo included), later dims interior-only
    out = []
    for a in range(3):
        hi = local_dims[a]
        if a < dim:
            out.append(slice(0, hi + 2))
        elif a > dim:
            out.append(slice(1, hi + 1))
        elif direction == BACKWARD:
            out.append(slice(1, 2))
        else:
            out.append(slice(hi, hi + 1))
    return tuple(out)


def _stage_halo_slices(local_dims, dim, side):
    out = []
    for a in range(3):
        hi = local_dims[a]
        if a < dim:
            out.append(slice(0, hi + 2))
        elif a > dim:
            out.append(slice(1, hi + 1))
        elif side == BACKWARD:
            out.append(slice(0, 1))
        else:
            out.append(slice(hi + 1, hi + 2))
    return tuple(out)


def _stage_shape(local_dims, dim, m):
    lx, ly, lz = local_dims
    if dim == 0:
        return (1, ly, lz, m)
    if dim == 1:
        return (lx + 2, 1, lz, m)
    return (lx + 2, ly + 2, 1, m)


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


def _message(peer, send_id, recv_id, send_slices, halo_slices, buffer):
    return Message(peer, send_id, recv_id, send_slices, halo_slices, buffer,
                   memoryview(buffer).cast("B"))


class HaloBuffers:
    """Persistent staging arrays and message plans for one rank's exchanges.

    ``slices`` holds the (send, halo) slices of all 26 displacements,
    ``direct`` the active messages of the 26-message exchange in post order
    (planes, edges, corners) and ``stages`` the active messages of each
    blocking stage; peers past an open edge are left out.  Also holds
    the exchange sequence number used for tags and the instrumentation
    counters.
    """

    def __init__(self, topo, rank, local_dims, m, endpoint):
        self.rank = int(rank)
        self.local_dims = dims = tuple(int(v) for v in local_dims)
        self.m = int(m)
        if min(self.local_dims) < 1:
            raise ConfigurationError("local dimensions must be at least 1")
        self.endpoint = endpoint
        self.neighbours = build_neighbour_table(topo, rank)
        self.send_full = [np.zeros(_extents(dims, d) + (self.m,)) for d in DISPLACEMENTS]
        self.slices = _direct_slices(dims)
        self.direct = [
            _message(self.neighbours.full[idx], idx, OPPOSITE_DISPLACEMENT[idx],
                     *self.slices[idx], self.send_full[idx])
            for group in GROUPS.values()
            for idx in group
            if self.neighbours.full[idx] != NO_NEIGHBOUR
        ]
        self.stages = []
        for dim in range(3):
            shape = _stage_shape(dims, dim, self.m)
            stage = []
            for direction in (BACKWARD, FORWARD):
                peer = self.neighbours.orthogonal[direction][dim]
                if peer == NO_NEIGHBOUR:
                    continue
                # the halo on this side carries the neighbour's opposite-travel send
                opposite = FORWARD if direction == BACKWARD else BACKWARD
                stage.append(_message(
                    peer, blocking_message_id(dim, direction), blocking_message_id(dim, opposite),
                    _stage_send_slices(dims, dim, direction),
                    _stage_halo_slices(dims, dim, direction), np.zeros(shape)))
            self.stages.append(stage)
        self.seq = 0
        self.counters = ExchangeCounters()

    @cached_property
    def recv_full(self):
        """Receive buffers of the standalone pack/unpack API, one per
        displacement; the exchanges unpack from the received bytes instead."""
        return [np.zeros(buf.shape) for buf in self.send_full]

    def check_field(self, field):
        if field.local_dims != self.local_dims or field.m != self.m:
            raise ConfigurationError(
                f"field {field.local_dims}/m={field.m} does not match buffers "
                f"{self.local_dims}/m={self.m}"
            )

    def _next_tag_base(self):
        base = self.seq * _TAG_STRIDE
        self.seq += 1
        return base


@dataclass
class ExchangeToken:
    """In-flight non-blocking exchange: its receive and send requests."""

    recv_entries: list = dc_field(default_factory=list)  # (displacement idx, handle)
    send_handles: list = dc_field(default_factory=list)
    finished: bool = False


def pack_group(field, group, buffers):
    """Copy the boundary sites for one message group into the send buffers."""
    buffers.check_field(field)
    try:
        indices = GROUPS[group]
    except KeyError:
        raise ValueError(f"unknown group {group!r}; expected planes|edges|corners") from None
    for idx in indices:
        buffers.send_full[idx][...] = field.data[buffers.slices[idx][0]]


def unpack_halo_buffers(buffers, field):
    """Write every received direct-message buffer into the halo shell."""
    buffers.check_field(field)
    for idx, (_, halo) in enumerate(buffers.slices):
        if buffers.neighbours.full[idx] == NO_NEIGHBOUR:
            continue
        field.data[halo] = buffers.recv_full[idx]


def _post_receives(ep, messages, base):
    return [ep.post_recv(msg.peer, base + msg.recv_id, len(msg.view)) for msg in messages]


def _pack_and_send(ep, data, messages, base, counters):
    handles = []
    for msg in messages:
        msg.buffer[...] = data[msg.send_slices]
        handles.append(ep.post_send(msg.peer, base + msg.send_id, msg.view))
        counters.bytes_sent += len(msg.view)
    counters.recvs += len(messages)
    counters.sends += len(messages)
    return handles


def _unpack(data, msg, payload):
    data[msg.halo_slices] = np.frombuffer(payload, dtype=np.float64).reshape(msg.buffer.shape)


def exchange_nonblocking_start(field, topo, buffers):
    """Post the receives, then pack and post each send; never waits.

    Receives go up first so every send can match immediately; each send is
    posted as soon as its buffer is packed, planes first, then edges, then
    corners.  Returns the token for exchange_nonblocking_end.
    """
    buffers.check_field(field)
    token = ExchangeToken()
    base = buffers._next_tag_base()
    ep = buffers.endpoint
    messages = buffers.direct
    recvs = _post_receives(ep, messages, base)
    token.recv_entries = [(msg.send_id, h) for msg, h in zip(messages, recvs)]
    token.send_handles = _pack_and_send(ep, field.data, messages, base, buffers.counters)
    return token


def exchange_nonblocking_end(token, field, buffers):
    """Drain the receives via repeated wait_any, unpacking each as it
    arrives, then drain the sends."""
    buffers.check_field(field)
    if token.finished:
        raise UsageError("exchange token already completed")
    ep = buffers.endpoint
    data = field.data
    messages = buffers.direct
    recvs = [h for _, h in token.recv_entries]
    try:
        for _ in range(len(recvs)):
            i = ep.wait_any(recvs)
            payload = recvs[i].payload
            _unpack(data, messages[i], payload)
            buffers.counters.bytes_received += len(payload)
    except TransportDeadlock as exc:
        outstanding = sorted(
            HaloNeighbour(idx).name
            for idx, h in token.recv_entries
            if not h._consumed
        )
        raise TransportDeadlock(
            f"non-blocking end stalled; outstanding receives: {outstanding}",
            pending=exc.pending,
        ) from exc
    for _ in range(len(token.send_handles)):
        ep.wait_any(token.send_handles)
    buffers.counters.waits += 1  # one logical completion barrier
    token.finished = True


def exchange_nonblocking(field, topo, buffers):
    """Start immediately followed by end; no overlapped work."""
    token = exchange_nonblocking_start(field, topo, buffers)
    exchange_nonblocking_end(token, field, buffers)


def exchange_blocking(field, topo, buffers):
    """Staged 6-message exchange: per dimension post receives, pack, send, wait.

    Each stage blocks on its own wait_all before the next begins, so the
    whole exchange waits exactly three times.
    """
    buffers.check_field(field)
    base = buffers._next_tag_base()
    ep = buffers.endpoint
    data = field.data
    counters = buffers.counters
    for dim, messages in enumerate(buffers.stages):
        recvs = _post_receives(ep, messages, base)
        sends = _pack_and_send(ep, data, messages, base, counters)
        try:
            ep.wait_all(recvs + sends)
        except TransportDeadlock as exc:
            raise TransportDeadlock(
                f"blocked in {_STAGE_NAMES[dim]} stage: {exc}", pending=exc.pending
            ) from exc
        counters.waits += 1
        for msg, h in zip(messages, recvs):
            _unpack(data, msg, h.payload)
            counters.bytes_received += len(h.payload)


def exchange(field, topo, buffers, strategy):
    """Dispatch one full halo exchange by strategy name."""
    if strategy == "blocking":
        exchange_blocking(field, topo, buffers)
    elif strategy == "nonblocking":
        exchange_nonblocking(field, topo, buffers)
    else:
        raise ConfigurationError(f"unknown halo strategy {strategy!r}")


def halo_shell(field):
    """Copy of the field data with the interior zeroed, for shell comparisons."""
    out = field.data.copy()
    out[1:-1, 1:-1, 1:-1, :] = 0.0
    return out
