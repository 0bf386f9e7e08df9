"""Correctness checks built without the code they check.

The halo oracle assembles the global lattice from the ranks' interiors and
pads it periodically with ``np.pad(mode="wrap")``; it does not use halo.py.
The D3Q19 BGK reference streams by ``np.roll`` on the global lattice.  The
synthetic-workload checksum has a closed form.  Message and byte counts,
and the modelled cost floor, come from the subdomain geometry
(``Workload.message_bytes``).
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

from halolab.halo import HaloBuffers, exchange
from halolab.overlap import OverlapWorkload, step_with_overlap
from halolab.runner import run_physics, run_ranks
from halolab.topology import CartesianTopology

from .workloads import M, STRATEGIES, TAU

# -- halo oracle -------------------------------------------------------------


def rank_coords(rank, proc_dims):
    """Row-major (x slowest) rank -> grid coordinates."""
    _, py, pz = proc_dims
    x, rest = divmod(rank, py * pz)
    return (x, *divmod(rest, pz))


def assemble(interiors, proc_dims):
    """Global (X, Y, Z, m) lattice from the ranks' interiors, in rank order."""
    lx, ly, lz, m = interiors[0].shape
    px, py, pz = proc_dims
    out = np.empty((px * lx, py * ly, pz * lz, m))
    for rank, block in enumerate(interiors):
        cx, cy, cz = rank_coords(rank, proc_dims)
        out[cx * lx:(cx + 1) * lx, cy * ly:(cy + 1) * ly, cz * lz:(cz + 1) * lz] = block
    return out


def halo_oracle(interiors, proc_dims):
    """Each rank's expected data, halo included, on a fully periodic grid."""
    padded = np.pad(assemble(interiors, proc_dims), ((1, 1),) * 3 + ((0, 0),), mode="wrap")
    lx, ly, lz, _ = interiors[0].shape
    out = []
    for rank in range(len(interiors)):
        cx, cy, cz = rank_coords(rank, proc_dims)
        out.append(padded[cx * lx:(cx + 1) * lx + 2, cy * ly:(cy + 1) * ly + 2,
                          cz * lz:(cz + 1) * lz + 2])
    return out


def halo_mismatches(datas, proc_dims):
    """Number of values, over all ranks, that differ from the oracle."""
    interiors = [d[1:-1, 1:-1, 1:-1] for d in datas]
    expected = halo_oracle(interiors, proc_dims)
    return sum(int(np.count_nonzero(d != e)) for d, e in zip(datas, expected))


# -- D3Q19 BGK reference -----------------------------------------------------

D3Q19_E = np.array(
    [(0, 0, 0)]
    + [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]
    + [(1, 1, 0), (-1, -1, 0), (1, -1, 0), (-1, 1, 0),
       (1, 0, 1), (-1, 0, -1), (1, 0, -1), (-1, 0, 1),
       (0, 1, 1), (0, -1, -1), (0, 1, -1), (0, -1, 1)],
    dtype=np.float64,
)
D3Q19_W = np.array([1 / 3] + [1 / 18] * 6 + [1 / 36] * 12)


def bgk_step(f, tau):
    """One periodic stream-then-collide step on the global lattice."""
    f = np.stack(
        [np.roll(f[..., i], tuple(int(c) for c in D3Q19_E[i]), axis=(0, 1, 2))
         for i in range(len(D3Q19_W))],
        axis=-1,
    )
    rho = f.sum(axis=-1)
    u = f @ D3Q19_E / rho[..., None]
    eu = u @ D3Q19_E.T
    usq = (u * u).sum(axis=-1)[..., None]
    feq = D3Q19_W * rho[..., None] * (1 + 3 * eu + 4.5 * eu * eu - 1.5 * usq)
    return f - (f - feq) / tau


def mass(f):
    return float(f.sum())


def momentum(f):
    return f.sum(axis=(0, 1, 2)) @ D3Q19_E


# -- synthetic workload ------------------------------------------------------


def synthetic_checksum(interior, intensity):
    """Closed form of overlap.synthetic_workload: n passes of x <- a*x + b on
    component 0, summed, is a^n * S0 + N * b * (1 - a^n) / (1 - a)."""
    a, b = 0.999993, 1.25e-7
    first = interior[..., 0]
    an = a ** intensity
    return an * float(first.sum()) + first.size * b * (1 - an) / (1 - a)


# -- checks run by the benchmark -------------------------------------------------


def check_halos(wl, seed):
    """One exchange per strategy (overlapped on a workload with work) against
    the oracle; on such a workload also the checksum.  Yields (name, ok)."""
    topo = CartesianTopology(wl.proc_dims)
    for strategy in STRATEGIES:
        overlapped = strategy == "nonblocking" and wl.intensity > 0

        def body(ctx, strategy=strategy, overlapped=overlapped):
            field = wl.make_field(seed, ctx.rank)
            start = field.interior().copy()
            buffers = HaloBuffers(topo, ctx.rank, field.local_dims, M, ctx.endpoint)
            checksum = None
            if overlapped:
                checksum = step_with_overlap(field, topo, buffers, OverlapWorkload(wl.intensity))
            else:
                exchange(field, topo, buffers, strategy)
            return field.data.copy(), start, checksum

        outs = run_ranks(wl.nranks, body, model=wl.transport_model())
        bad = halo_mismatches([data for data, _, _ in outs], wl.proc_dims)
        yield f"{strategy} halo shells equal the wrap-padded global lattice", bad == 0
        if overlapped:
            wants = [synthetic_checksum(start, wl.intensity) for _, start, _ in outs]
            ok = all(abs(got - want) <= 1e-9 * abs(want)
                     for (_, _, got), want in zip(outs, wants))
            yield "synthetic workload checksum matches its closed form to 1e-9", ok


def check_physics(wl, seed, steps=8):
    """The program's own full-physics loop against the roll-streaming BGK
    reference, plus global mass and momentum drift.  Yields (name, ok)."""
    for strategy in STRATEGIES:
        cfg = wl.config(strategy, seed)
        start = assemble([d[1:-1, 1:-1, 1:-1] for d in run_physics(cfg, strategy, 0)], wl.proc_dims)
        got = assemble([d[1:-1, 1:-1, 1:-1] for d in run_physics(cfg, strategy, steps)], wl.proc_dims)
        ref = start
        for _ in range(steps):
            ref = bgk_step(ref, TAU)
        yield (f"{strategy}: {steps} steps match the numpy BGK reference to 1e-12",
               float(np.abs(got - ref).max()) <= 1e-12)
        m0 = mass(start)
        drift = max(abs(mass(got) - m0), float(np.abs(momentum(got) - momentum(start)).max()))
        yield f"{strategy}: mass and momentum drift <= 1e-12 of the mass", drift <= 1e-12 * m0


def check_model_floor(wl, seed, exchanges=5):
    """Under a cost model no exchange, timed alone, beats the modelled cost
    of the messages it sends.  A timed step would not show it: on a workload
    with synthetic work the work alone outlasts the modelled cost.  Yields
    (name, ok)."""
    topo = CartesianTopology(wl.proc_dims)
    floor_s = {s: wl.model_cost_s(s) for s in STRATEGIES}
    for strategy in STRATEGIES:

        def body(ctx, strategy=strategy):
            field = wl.make_field(seed, ctx.rank)
            buffers = HaloBuffers(topo, ctx.rank, field.local_dims, M, ctx.endpoint)
            times = []
            for _ in range(exchanges):
                t0 = perf_counter()
                exchange(field, topo, buffers, strategy)
                times.append(perf_counter() - t0)
            return min(times)

        fastest = min(run_ranks(wl.nranks, body, model=wl.transport_model()))
        yield (f"{strategy}: no exchange beats its modelled {floor_s[strategy] * 1e6:.0f} us",
               fastest >= floor_s[strategy])


def call_ok(wl, strategy, record):
    """A timed ``run_benchmark`` call sent exactly the analytic messages and bytes."""
    steps = record.iterations
    return (
        record.messages_sent == [wl.nranks * steps * len(wl.message_bytes(strategy))]
        and record.bytes_sent == [wl.nranks * steps * wl.halo_bytes()]
    )
