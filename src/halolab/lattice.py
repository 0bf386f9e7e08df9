"""Discrete-velocity lattice model: velocity sets, fields, BGK update.

Lattice units throughout: dx = dt = 1, lattice speed c = 1.  Storage is
site-major with the m distribution components contiguous per site,
``index = ((x*(Ly+2) + y)*(Lz+2) + z)*m + i`` with x, y, z in 0..L+1 and
the interior at 1..L.  That layout is load-bearing: the halo pack loops
rely on it for contiguous, canonically ordered buffers.

The kernels move data in cache-sized pieces and allocate nothing as large
as the field: ``collide`` relaxes one x-plane at a time through plane-sized
scratch, and ``stream`` copies the components a few x-planes at a time and
zeroes only the halo shell of its output.  Scratch lives for one call,
never in the module, because ranks are threads.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, ZeroDensityError


class VelocitySet:
    """A DnQm discrete-velocity stencil: vectors, weights, opposite map.

    Index 0 is always the rest velocity.  The vector set must be closed
    under negation so the opposite map is an involution.
    """

    __slots__ = ("name", "e", "w", "opposite")

    def __init__(self, e, w, name="custom"):
        e = np.ascontiguousarray(e, dtype=np.int64)
        w = np.ascontiguousarray(w, dtype=np.float64)
        if e.ndim != 2 or e.shape[1] != 3:
            raise ValueError("velocity vectors must form an (m, 3) array")
        m = e.shape[0]
        if not 1 <= m <= 27:
            raise ValueError(f"m={m}: supported models have 1..27 discrete velocities")
        if w.shape != (m,):
            raise ValueError("need exactly one weight per velocity")
        if np.any(np.abs(e) > 1):
            raise ValueError("velocity components must lie in {-1, 0, +1}")
        if np.any(e[0] != 0):
            raise ValueError("index 0 must be the on-site (rest) velocity")
        if np.any(w <= 0.0) or abs(float(w.sum()) - 1.0) > 1e-12:
            raise ValueError("weights must be positive and sum to 1")
        rows = [tuple(v) for v in e.tolist()]
        if len(set(rows)) != m:
            raise ValueError("duplicate velocity vectors")
        lookup = {v: i for i, v in enumerate(rows)}
        opposite = np.empty(m, dtype=np.int64)
        for i, (vx, vy, vz) in enumerate(rows):
            j = lookup.get((-vx, -vy, -vz))
            if j is None:
                raise ValueError("velocity set is not closed under negation")
            opposite[i] = j
        for arr in (e, w, opposite):
            arr.setflags(write=False)
        self.name = name
        self.e = e
        self.w = w
        self.opposite = opposite

    @property
    def m(self):
        return self.e.shape[0]

    def __repr__(self):
        return f"VelocitySet({self.name!r}, m={self.m})"


_D3Q19_E = (
    (0, 0, 0),
    (1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1),
    (1, 1, 0), (-1, -1, 0), (1, -1, 0), (-1, 1, 0),
    (1, 0, 1), (-1, 0, -1), (1, 0, -1), (-1, 0, 1),
    (0, 1, 1), (0, -1, -1), (0, 1, -1), (0, -1, 1),
)

_D3Q27_E = _D3Q19_E + (
    (1, 1, 1), (-1, -1, -1), (1, 1, -1), (-1, -1, 1),
    (1, -1, 1), (-1, 1, -1), (1, -1, -1), (-1, 1, 1),
)


def d3q19():
    """The 19-velocity cubic model: rest + 6 axis + 12 face-diagonal vectors."""
    w = (1.0 / 3.0,) + (1.0 / 18.0,) * 6 + (1.0 / 36.0,) * 12
    return VelocitySet(_D3Q19_E, w, name="D3Q19")


def d3q27():
    """The full 27-velocity cubic model including the 8 corner vectors."""
    w = (8.0 / 27.0,) + (2.0 / 27.0,) * 6 + (1.0 / 54.0,) * 12 + (1.0 / 216.0,) * 8
    return VelocitySet(_D3Q27_E, w, name="D3Q27")


def velocity_set_for(m):
    """Return the canonical velocity set with m components, if one exists."""
    if m == 19:
        return d3q19()
    if m == 27:
        return d3q27()
    raise ValueError(f"no canonical velocity set with m={m} (have 19, 27)")


class DistributionField:
    """Per-rank lattice of m-component distributions plus a one-site halo shell.

    ``data`` has shape (Lx+2, Ly+2, Lz+2, m), C-contiguous float64.
    """

    __slots__ = ("local_dims", "m", "data")

    def __init__(self, local_dims, m, data=None):
        lx, ly, lz = (int(v) for v in local_dims)
        if min(lx, ly, lz) < 1:
            raise ValueError("local dimensions must be at least 1")
        m = int(m)
        if not 1 <= m <= 27:
            raise ValueError(f"m={m}: supported range is 1..27")
        shape = (lx + 2, ly + 2, lz + 2, m)
        if data is None:
            data = np.zeros(shape, dtype=np.float64)
        else:
            data = np.ascontiguousarray(data, dtype=np.float64)
            if data.shape != shape:
                raise ValueError(f"data shape {data.shape} does not match {shape}")
        self.local_dims = (lx, ly, lz)
        self.m = m
        self.data = data

    def interior(self):
        """View of the owned sites, shape (Lx, Ly, Lz, m)."""
        return self.data[1:-1, 1:-1, 1:-1, :]

    @property
    def interior_sites(self):
        lx, ly, lz = self.local_dims
        return lx * ly * lz

    @property
    def halo_site_count(self):
        lx, ly, lz = self.local_dims
        return (lx + 2) * (ly + 2) * (lz + 2) - lx * ly * lz

    def copy(self):
        return DistributionField(self.local_dims, self.m, self.data.copy())

    def check_finite(self):
        if not np.isfinite(self.data).all():
            raise FloatingPointError("distribution field contains non-finite values")

    def __repr__(self):
        return f"DistributionField(dims={self.local_dims}, m={self.m})"


def _check_interior_site(field, site):
    x, y, z = (int(c) for c in site)
    for c, hi in zip((x, y, z), field.local_dims):
        if not 1 <= c <= hi:
            raise DomainError(f"site {site} outside interior 1..{field.local_dims}")
    return x, y, z


def density(field, site):
    """Macroscopic density at an interior site: the sum of all components."""
    x, y, z = _check_interior_site(field, site)
    return float(field.data[x, y, z, :].sum())


def velocity(field, site, vs):
    """Macroscopic velocity at an interior site, (1/rho) * sum_i f_i e_i."""
    x, y, z = _check_interior_site(field, site)
    f = field.data[x, y, z, :]
    rho = float(f.sum())
    if rho == 0.0:
        raise ZeroDensityError(f"zero density at site {site}")
    return f @ vs.e.astype(np.float64) / rho


def _equilibrium(rho, u, e, w, out, tmp, usq):
    """Write the BGK equilibrium of (rho, u) into ``out``; allocates nothing.

    f_i = w_i * rho * (1 + 3 e.u + 4.5 (e.u)^2 - 1.5 u.u), evaluated in this
    operation order, on which collide's bit-for-bit results rest.  Shapes:
    rho (...,), u (..., 3), e (m, 3) float64, out and tmp (..., m), usq
    (..., 1).  ``u`` is overwritten.
    """
    np.matmul(u, e.T, out=out)
    np.multiply(out, 4.5, out=tmp)
    np.multiply(tmp, out, out=tmp)
    np.multiply(out, 3.0, out=out)
    np.add(out, 1.0, out=out)
    np.add(out, tmp, out=out)
    np.multiply(u, u, out=u)
    np.sum(u, axis=-1, keepdims=True, out=usq)
    np.multiply(usq, 1.5, out=usq)
    np.subtract(out, usq, out=out)
    np.multiply(rho[..., np.newaxis], w, out=tmp)
    np.multiply(tmp, out, out=out)


def equilibrium(rho, u, vs):
    """Second-order polynomial equilibrium distribution.

    f_i = w_i * rho * (1 + 3 e.u + 4.5 (e.u)^2 - 1.5 u.u).  Broadcasts over
    leading axes: rho (...,), u (..., 3) -> (..., m).  Zeroth and first
    moments reproduce rho and rho*u to round-off for |u| well below 1.
    """
    rho = np.asarray(rho, dtype=np.float64)
    u = np.asarray(u, dtype=np.float64)
    if np.any(rho <= 0.0):
        raise ZeroDensityError("equilibrium needs strictly positive density")
    lead = np.broadcast_shapes(rho.shape, u.shape[:-1])
    feq = np.empty(lead + (vs.m,))
    _equilibrium(
        np.broadcast_to(rho, lead),
        np.array(np.broadcast_to(u, lead + (3,))),
        vs.e.astype(np.float64),
        vs.w,
        feq,
        np.empty_like(feq),
        np.empty(lead + (1,)),
    )
    return feq


def collide(field, tau, vs):
    """Relax every interior site toward local equilibrium (BGK), in place.

    Conserves density and momentum at each site to round-off.  The first
    pass sums each site's density and checks it before anything is written:
    a NaN or inf in any component makes its site's density non-finite and
    raises ``FloatingPointError``; a density <= 0 raises
    ``ZeroDensityError``.  The second pass relaxes one x-plane at a time
    through plane-sized scratch, so no temporary is as large as the field.
    The halo shell is neither read nor written.
    """
    if not tau > 0.5:
        raise ValueError(f"tau={tau}: relaxation time must exceed 0.5")
    f = field.interior()
    rho = f.sum(axis=-1)
    if not np.isfinite(rho).all():
        raise FloatingPointError("collide on a non-finite field")
    if np.any(rho <= 0.0):
        raise ZeroDensityError("collide needs strictly positive density")
    e = vs.e.astype(np.float64)
    plane = f.shape[1:]
    u = np.empty(plane[:-1] + (3,))
    usq = np.empty(plane[:-1] + (1,))
    feq = np.empty(plane)
    tmp = np.empty(plane)
    for fx, rx in zip(f, rho):
        np.matmul(fx, e, out=u)
        np.divide(u, rx[..., np.newaxis], out=u)
        _equilibrium(rx, u, e, vs.w, feq, tmp, usq)
        np.subtract(fx, feq, out=feq)
        np.divide(feq, tau, out=feq)
        np.subtract(fx, feq, out=fx)


# x-planes per stream block.  At L=32 on a host with 2 MiB of L2 per core a
# 4-plane block (~1.7 MB of source and destination) took 2.2 ms per stream,
# against 3.0 ms for 1 plane and 3.3 ms for 8, whose blocks spill from L2.
_STREAM_BLOCK = 4


def stream(field, vs, out=None):
    """Propagate each component one lattice step along its velocity.

    Reads may come from the halo shell, so the shell must hold valid
    neighbour data.  Double-buffered: the result is a separate field (pass
    ``out`` to reuse an allocation).  Halo contents of the result are
    unspecified; they are zeroed here.  Every interior value of ``out`` is
    overwritten, so only its halo shell is zeroed, and the components are
    copied a few x-planes at a time so each block stays in cache.
    """
    lx, ly, lz = field.local_dims
    if out is None:
        out = DistributionField(field.local_dims, field.m)
    elif out.local_dims != field.local_dims or out.m != field.m:
        raise ValueError("output field shape mismatch")
    src = field.data
    dst = out.data
    dst[0] = dst[-1] = 0.0
    dst[1:-1, 0] = dst[1:-1, -1] = 0.0
    dst[1:-1, 1:-1, 0] = dst[1:-1, 1:-1, -1] = 0.0
    shifts = vs.e.tolist()
    for x0 in range(1, lx + 1, _STREAM_BLOCK):
        x1 = min(x0 + _STREAM_BLOCK, lx + 1)
        for i, (ex, ey, ez) in enumerate(shifts):
            dst[x0:x1, 1:ly + 1, 1:lz + 1, i] = src[
                x0 - ex:x1 - ex, 1 - ey:ly + 1 - ey, 1 - ez:lz + 1 - ez, i
            ]
    return out


def memory_estimate(global_dims, m):
    """Bytes for one double-precision distribution array over the global lattice."""
    X, Y, Z = (int(v) for v in global_dims)
    m = int(m)
    if min(X, Y, Z) < 1 or m < 1:
        raise ValueError("dimensions and m must be positive")
    total = 8 * m * X * Y * Z
    if total > 2**63 - 1:
        raise OverflowError(f"estimate {total} bytes exceeds a 64-bit byte count")
    return total


def total_mass(field):
    """Sum of all interior distribution values."""
    return float(field.interior().sum())


def total_momentum(field, vs):
    """Global momentum vector, sum over interior sites of f_i e_i."""
    per_component = field.interior().sum(axis=(0, 1, 2))
    return per_component @ vs.e.astype(np.float64)


def random_state(local_dims, vs, rng, rho0=1.0, drho=0.1, du=0.02, noise=0.05):
    """Seeded random field: near-equilibrium with a small kinetic perturbation.

    Values stay strictly positive so collide/velocity are well defined.
    """
    field = DistributionField(local_dims, vs.m)
    shape = field.local_dims
    rho = rho0 + drho * rng.uniform(-1.0, 1.0, size=shape)
    u = du * rng.uniform(-1.0, 1.0, size=shape + (3,))
    feq = equilibrium(rho, u, vs)
    field.interior()[...] = feq * (1.0 + noise * rng.uniform(-1.0, 1.0, size=feq.shape))
    return field
