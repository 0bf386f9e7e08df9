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
sets of one field may stream on separate threads.  ``collide`` works in
moment space (``VelocitySet.E`` and ``A``): two small matrix products per
pair of padded x-planes, through scratch of the box's moments plus two
planes; each output column depends on its own input column alone, so
x-slabs of the interior may collide on separate threads for the
whole-field values bit for bit.  ``random_state`` fills the seeded field
one x-plane of random draws at a time; the values and the generator's state
afterwards are those of one whole-field draw, and no temporary is as large
as the interior.
Scratch lives for one call, never in the module, because ranks are threads.
"""

from __future__ import annotations

import numpy as np

from .errors import ZeroDensityError


class VelocitySet:
    """A DnQm discrete-velocity stencil: vectors, weights, opposite map, and
    the two matrices of the moment-space BGK update.

    Index 0 is the rest velocity, and the vectors are closed under negation,
    so the opposite map is an involution.  ``E`` (4 x m) takes a site's
    moments [rho, j] = E @ f: a row of ones, then e_x, e_y, e_z.  ``A``
    (m x 10) gives its equilibrium f_eq = A @ Q, with Q = [rho, j_x, j_y,
    j_z, j_x u_x, j_y u_y, j_z u_z, j_x u_y, j_x u_z, j_y u_z] and u = j/rho:
    the polynomial w_i rho (1 + 3 e.u + 4.5 (e.u)^2 - 1.5 u.u) is linear in
    those ten moments, with columns w, 3 w e_a, w (4.5 e_a^2 - 1.5) and
    9 w e_a e_b.  Only the two module constants below are built; their
    read-only arrays are shared by every rank.
    """

    __slots__ = ("name", "e", "w", "opposite", "E", "A")

    def __init__(self, e, w, name):
        rows = [tuple(v) for v in e]
        self.name = name
        self.e = np.array(rows, dtype=np.int64)
        self.w = np.array(w, dtype=np.float64)
        self.opposite = np.array([rows.index((-x, -y, -z)) for x, y, z in rows],
                                 dtype=np.int64)
        ef = self.e.astype(np.float64)
        self.E = np.vstack([np.ones(len(rows)), ef.T])
        wc = self.w[:, np.newaxis]
        self.A = np.hstack([wc, 3.0 * wc * ef, wc * (4.5 * ef * ef - 1.5),
                            9.0 * wc * ef[:, [0, 0, 1]] * ef[:, [1, 2, 2]]])
        for arr in (self.e, self.w, self.opposite, self.E, self.A):
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


def interior_box(local_dims):
    """The interior as a box: three slices of padded coordinates, 1..L."""
    return tuple(slice(1, n + 1) for n in local_dims)


# Padded x-planes per product of ``collide``.  Two timed faster than one in
# a two-worker D3Q19 collide at L=32, and OpenBLAS's own thread stayed idle
# with either.  The box's moments are taken by chunks of the same width: one
# product over a whole L=32 box woke that thread and ran 20x slower.
_PLANES = 2


def _second_moments(q, u):
    """Fill rows 4..9 of ``q``, whose rows 0..3 hold [rho, j], with the six
    products j_a u_b of ``u`` that ``VelocitySet.A`` weighs, in its order."""
    np.multiply(q[1:4], u, out=q[4:7])
    np.multiply(q[1], u[1:3], out=q[7:9])
    np.multiply(q[2], u[2], out=q[9])


def collide(field, tau, vs, box=None):
    """Relax every site of ``box`` toward local equilibrium (BGK), in place.

    ``box`` is three slices of padded coordinates inside the interior,
    which is the default.  The update works in moment space:

        f' = (1 - 1/tau) f + (A/tau) @ Q,  Q from [rho, j] = E @ f

    (``VelocitySet`` gives E, A and Q).  The box's padded x-planes are one
    (m, planes * (Ly+2)(Lz+2)) matrix whose rows lie a component stride
    apart, so BLAS reads the store without a copy.  The box's moments come
    from ``E @`` products, and its density is checked before any write:
    a NaN or inf in any component makes its site's density non-finite and
    raises ``FloatingPointError``; a density <= 0 raises
    ``ZeroDensityError``.  Then each two padded planes take one ``A @``
    product, and only the box's part of it is written back.  Halo columns
    may hold anything (a density of 0, NaN); their products run with
    floating-point warnings off and are never written.  Scratch is the
    box's moments plus two planes.  Conserves density and momentum at each
    site to round-off.  Every output column depends on its own input column
    alone, so boxes that partition the interior in x give the whole-field
    values bit for bit.
    """
    if not tau > 0.5:
        raise ValueError(f"tau={tau}: relaxation time must exceed 0.5")
    bx, by, bz = interior_box(field.local_dims) if box is None else box
    m, _, ny, nz = field.store.shape
    f = field.store[:, bx].reshape(m, -1)
    width = _PLANES * ny * nz
    mom = np.empty((4, f.shape[1]))
    with np.errstate(all="ignore"):
        for c in range(0, f.shape[1], width):
            np.matmul(vs.E, f[:, c:c + width], out=mom[:, c:c + width])
    rho = mom[0].reshape(-1, ny, nz)[:, by, bz]
    if not np.isfinite(rho).all():
        raise FloatingPointError("collide on a non-finite field")
    if np.any(rho <= 0.0):
        raise ZeroDensityError("collide needs strictly positive density")
    a = vs.A / tau
    keep = 1.0 - 1.0 / tau
    q, u = np.empty((10, width)), np.empty((3, width))
    out, kept = np.empty((m, width)), np.empty((m, width))
    for c in range(0, f.shape[1], width):
        n = min(width, f.shape[1] - c)
        qc, uc, oc, kc = q[:, :n], u[:, :n], out[:, :n], kept[:, :n]
        qc[:4] = mom[:, c:c + n]
        with np.errstate(all="ignore"):
            np.divide(qc[1:4], qc[0], out=uc)
            _second_moments(qc, uc)
            np.matmul(a, qc, out=oc)
            np.multiply(f[:, c:c + n], keep, out=kc)
            oc += kc
        x = bx.start + c // (ny * nz)
        field.store[:, x:x + n // (ny * nz), by, bz] = oc.reshape(m, -1, ny, nz)[:, :, by, bz]


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
    ``rng`` in the same state, as one whole-field draw.  Each x-plane's
    equilibrium is one ``A @`` product (``VelocitySet``, with j = rho u) over
    the padded plane, whose halo columns of Q are zero and give zeros, so a
    product never has the lone column that numpy would hand to gemv, whose
    sums round otherwise.  No temporary is as large as the
    interior.
    """
    field = DistributionField(local_dims, vs.m)
    lx, ly, lz = shape = field.local_dims
    rho = 1.0 + 0.1 * rng.uniform(-1.0, 1.0, size=shape)
    u = np.ascontiguousarray(
        (du * rng.uniform(-1.0, 1.0, size=shape + (3,))).transpose(3, 0, 1, 2))
    q = np.zeros((10, ly + 2, lz + 2))
    qi = q[:, 1:-1, 1:-1]
    fc = field.interior_components()
    for x in range(lx):
        qi[0] = rho[x]
        np.multiply(rho[x], u[:, x], out=qi[1:4])
        _second_moments(qi, u[:, x])
        np.matmul(vs.A, q.reshape(10, -1), out=field.store[:, x + 1].reshape(vs.m, -1))
        kick = rng.uniform(-1.0, 1.0, size=(ly, lz, vs.m))
        kick *= 0.05
        kick += 1.0
        fc[:, x] *= kick.transpose(2, 0, 1)
    return field
