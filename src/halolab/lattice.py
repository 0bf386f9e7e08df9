"""Discrete-velocity lattice model: velocity sets, fields, BGK update.

Lattice units throughout: dx = dt = 1, lattice speed c = 1.  Storage is
component-major: each of the m distribution components is one contiguous
(Lx+2, Ly+2, Lz+2) array, ``index = ((i*(Lx+2) + x)*(Ly+2) + y)*(Lz+2) + z``
with x, y, z in 0..L+1 and the interior at 1..L.  ``DistributionField.data``
views the same memory site-major, as (x, y, z, i); halo packing, the checks
and the tests read through it, so the order of the bytes on the wire (site,
then component) does not depend on the storage order.

The kernels work on a box, three slices of padded coordinates inside the
interior, which is their default.  Within the box they work on whole
components: ``stream`` is one shifted copy per component and writes every
value of its output in the box and no other, so no halo value (the halo
exchange alone writes halos, see ``halo``); its output may be its input, so
a rank keeps one field (q values per node, not 2q), and disjoint component
sets of one field may stream on separate threads.  ``collide`` takes
density and momentum in one numpy call each, then relaxes each component as
one array of the box's shape through scratch of about twelve such arrays,
less than one box of all components; x-slabs of the interior may collide on
separate threads for the whole-field values bit for bit (``collide`` says
when).  ``random_state`` fills the seeded field one x-plane of random
draws at a time; the values and the generator's state afterwards are those
of one whole-field draw, and no temporary is as large as the interior.
Scratch lives for one call, never in the module, because ranks are threads.
"""

from __future__ import annotations

import numpy as np

from .errors import ZeroDensityError


class VelocitySet:
    """A DnQm discrete-velocity stencil: vectors, weights, opposite map.

    Index 0 is the rest velocity, and the vectors are closed under negation,
    so the opposite map is an involution.  Only the two module constants
    below are built; their read-only arrays are shared by every rank.
    """

    __slots__ = ("name", "e", "w", "opposite")

    def __init__(self, e, w, name):
        rows = [tuple(v) for v in e]
        self.name = name
        self.e = np.array(rows, dtype=np.int64)
        self.w = np.array(w, dtype=np.float64)
        self.opposite = np.array([rows.index((-x, -y, -z)) for x, y, z in rows],
                                 dtype=np.int64)
        for arr in (self.e, self.w, self.opposite):
            arr.setflags(write=False)

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

# the 19-velocity cubic model: rest + 6 axis + 12 face-diagonal vectors
D3Q19 = VelocitySet(
    _D3Q19_E, (1.0 / 3.0,) + (1.0 / 18.0,) * 6 + (1.0 / 36.0,) * 12, "D3Q19")
# the full 27-velocity cubic model: D3Q19 plus the 8 corner vectors
D3Q27 = VelocitySet(
    _D3Q19_E + (
        (1, 1, 1), (-1, -1, -1), (1, 1, -1), (-1, -1, 1),
        (1, -1, 1), (-1, 1, -1), (1, -1, -1), (-1, 1, 1),
    ),
    (8.0 / 27.0,) + (2.0 / 27.0,) * 6 + (1.0 / 54.0,) * 12 + (1.0 / 216.0,) * 8,
    "D3Q27",
)


def d3q19():
    """The D3Q19 constant."""
    return D3Q19


def velocity_set_for(m):
    """Return the canonical velocity set with m components, if one exists."""
    if m == 19:
        return D3Q19
    if m == 27:
        return D3Q27
    raise ValueError(f"no canonical velocity set with m={m} (have 19, 27)")


class DistributionField:
    """Per-rank lattice of m-component distributions plus a one-site halo shell.

    ``store`` is the storage: shape (m, Lx+2, Ly+2, Lz+2), C-contiguous
    float64, so each component is one contiguous array.  ``data`` is the
    (Lx+2, Ly+2, Lz+2, m) view of the same memory, indexed by site, then
    component; writes through either show in the other.
    """

    __slots__ = ("local_dims", "m", "store", "data")

    def __init__(self, local_dims, m):
        lx, ly, lz = (int(v) for v in local_dims)
        if min(lx, ly, lz) < 1:
            raise ValueError("local dimensions must be at least 1")
        m = int(m)
        if not 1 <= m <= 27:
            raise ValueError(f"m={m}: supported range is 1..27")
        self.local_dims = (lx, ly, lz)
        self.m = m
        self.store = np.zeros((m, lx + 2, ly + 2, lz + 2))
        self.data = self.store.transpose(1, 2, 3, 0)

    def interior(self):
        """View of the owned sites, shape (Lx, Ly, Lz, m)."""
        return self.data[1:-1, 1:-1, 1:-1, :]

    def interior_components(self):
        """View of the owned sites by component, shape (m, Lx, Ly, Lz)."""
        return self.store[:, 1:-1, 1:-1, 1:-1]

    def __repr__(self):
        return f"DistributionField(dims={self.local_dims}, m={self.m})"


def _opposite_pairs(vs):
    """(i, j) with e_j = -e_i, one per pair, e_i's first nonzero component
    positive; the rest velocity comes first as (0, None).  Pairs keep the
    set's index order, so equal weights stay together in D3Q19 and D3Q27."""
    return [(0, None)] + [
        (i, int(vs.opposite[i]))
        for i, v in enumerate(vs.e.tolist())
        if i and next(c for c in v if c) > 0
    ]


def _equilibrium(rho, u, vs):
    """Yield (i, f_i) for every velocity i: the BGK equilibrium of density
    ``rho`` and velocity ``u``, one component at a time.

    ``u`` is component-major, shape (3,) + rho.shape.  Per element

        f_i = w_i * rho * (((1 + 3 e.u) + 4.5 (e.u)^2) - 1.5 u.u)

    in this operation order, with u.u = (ux^2 + uy^2) + uz^2 and e.u the
    signed sum of u's components in x, y, z order: exactly the values that
    ``np.sum(u * u, axis=-1)`` and ``u @ e.T`` give site-major.  The 3 e.u and
    4.5 (e.u)^2 terms of e_i serve -e_i as well (1 - 3 e.u, same square), and
    rho * w_i serves every velocity of equal weight; both are exact.  Scratch
    is six arrays of rho's shape; each f_i is one of them, which the caller
    may overwrite before taking the next.
    """
    usq, eu, p, q, rw, out = (np.empty(rho.shape) for _ in range(6))
    # usq holds 1.5 u.u; eu is scratch until the pairs need it
    np.multiply(u[0], u[0], out=usq)
    np.multiply(u[1], u[1], out=eu)
    usq += eu
    np.multiply(u[2], u[2], out=eu)
    usq += eu
    usq *= 1.5
    last_w = None
    for i, j in _opposite_pairs(vs):
        if vs.w[i] != last_w:
            last_w = vs.w[i]
            np.multiply(rho, last_w, out=rw)
        if j is None:
            np.subtract(1.0, usq, out=out)
            out *= rw
            yield i, out
            continue
        (a, _), *rest = [(a, c) for a, c in enumerate(vs.e[i].tolist()) if c]
        x = u[a]
        for b, c in rest:
            (np.add if c > 0 else np.subtract)(x, u[b], out=eu)
            x = eu
        np.multiply(x, 3.0, out=p)
        np.multiply(x, 4.5, out=q)
        q *= x
        for k, ufunc in ((i, np.add), (j, np.subtract)):
            ufunc(1.0, p, out=out)  # 1 + 3 e.u, and 1 - 3 e.u for -e_i
            out += q
            out -= usq
            out *= rw
            yield k, out


def interior_box(local_dims):
    """The interior as a box: three slices of padded coordinates, 1..L."""
    return tuple(slice(1, n + 1) for n in local_dims)


def collide(field, tau, vs, box=None):
    """Relax every site of ``box`` toward local equilibrium (BGK), in place.

    ``box`` is three slices of padded coordinates inside the interior,
    which is the default.  Conserves density and momentum at each site to
    round-off.  Density ``rho`` and momentum are one numpy call each over
    the box's site-major view; the density is checked before any write of
    the box: a NaN or inf in any component makes its site's density
    non-finite and raises ``FloatingPointError``; a density <= 0 raises
    ``ZeroDensityError``.  Each component is then relaxed as one array of
    the box's shape.  Scratch peaks at about twelve such arrays, under one
    box of all components.  No value outside the box is read or written.
    Boxes that partition the interior in x give the whole-field values bit
    for bit, provided none holds a lone site of a larger interior: numpy
    sums many sites' components one after another, a lone site's pairwise.
    """
    if not tau > 0.5:
        raise ValueError(f"tau={tau}: relaxation time must exceed 0.5")
    if box is None:
        box = interior_box(field.local_dims)
    f = field.data[box]
    rho = f.sum(axis=-1)
    if not np.isfinite(rho).all():
        raise FloatingPointError("collide on a non-finite field")
    if np.any(rho <= 0.0):
        raise ZeroDensityError("collide needs strictly positive density")
    mom = f @ vs.e.astype(np.float64)
    u = np.empty((3,) + rho.shape)
    np.divide(mom.transpose(3, 0, 1, 2), rho, out=u)
    del mom
    fc = field.store[(slice(None),) + box]
    for i, feq in _equilibrium(rho, u, vs):
        fi = fc[i]
        np.subtract(fi, feq, out=feq)
        np.divide(feq, tau, out=feq)
        np.subtract(fi, feq, out=fi)


def stream(field, vs, out=None, box=None, components=None):
    """Propagate each component one lattice step along its velocity into
    the sites of ``box`` (three slices of padded coordinates inside the
    interior, by default the whole interior).

    Reads may come from the halo shell, so the shell must hold valid
    neighbour data.  The result goes to ``out``, a new field by default;
    ``out`` may be ``field`` itself, which streams in place: numpy copies a
    component's overlapping source before it assigns, so the values are
    those of a separate output bit for bit.  Each component is one shifted
    copy of a contiguous array: every value of ``out`` in the box is
    written and no other, so ``out``'s halo shell keeps what it held.
    ``components`` selects the component indices to stream (by default
    all); the others of ``out`` keep what they held, so disjoint selections
    may stream one field in place on separate threads.
    """
    if out is None:
        out = DistributionField(field.local_dims, field.m)
    elif out.local_dims != field.local_dims or out.m != field.m:
        raise ValueError("output field shape mismatch")
    bx, by, bz = interior_box(field.local_dims) if box is None else box
    src = field.store
    dst = out.store
    e = vs.e.tolist()
    for i in range(vs.m) if components is None else components:
        ex, ey, ez = e[i]
        dst[i, bx, by, bz] = src[
            i, bx.start - ex:bx.stop - ex, by.start - ey:by.stop - ey, bz.start - ez:bz.stop - ez
        ]
    return out


def random_state(local_dims, vs, rng, du=0.02):
    """Seeded random field: near-equilibrium with a small kinetic perturbation.

    Density is 1 +- 0.1, velocity components are within +-``du``, and each
    value is its equilibrium times 1 +- 0.05, so every value stays strictly
    positive and collide is well defined.

    Density and velocity are drawn whole; the site-major (x, y, z, i) kick is
    drawn one x-plane at a time, which gives the same values, and leaves
    ``rng`` in the same state, as one whole-field draw.  No temporary is as
    large as the interior.
    """
    field = DistributionField(local_dims, vs.m)
    lx, ly, lz = shape = field.local_dims
    rho = 1.0 + 0.1 * rng.uniform(-1.0, 1.0, size=shape)
    u = np.ascontiguousarray(
        (du * rng.uniform(-1.0, 1.0, size=shape + (3,))).transpose(3, 0, 1, 2))
    fc = field.interior_components()
    # 1 + 0.05 * kick, plane by plane into the store, then times feq
    for x in range(lx):
        kick = rng.uniform(-1.0, 1.0, size=(ly, lz, vs.m))
        kick *= 0.05
        kick += 1.0
        fc[:, x] = kick.transpose(2, 0, 1)
    for i, feq in _equilibrium(rho, u, vs):
        fc[i] *= feq
    return field
