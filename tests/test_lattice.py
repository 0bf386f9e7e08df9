import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from halolab import lattice
from halolab.errors import ZeroDensityError
from halolab.lattice import (
    DistributionField,
    collide,
    D3Q19,
    D3Q27,
    stream,
)
from halolab.metrics import halo_sites
from helpers import equilibrium, total_mass, total_momentum


@pytest.fixture(scope="module")
def vs19():
    return D3Q19


class TestVelocitySet:
    def test_d3q19_shape(self, vs19):
        assert vs19.m == 19
        assert np.all(vs19.e[0] == 0)
        assert abs(vs19.w.sum() - 1.0) < 1e-15
        norms = (vs19.e ** 2).sum(axis=1)
        assert set(norms.tolist()) == {0, 1, 2}

    def test_d3q27(self):
        vs = D3Q27
        assert vs.m == 27
        assert abs(vs.w.sum() - 1.0) < 1e-15

    @pytest.mark.parametrize("vs", [D3Q19, D3Q27], ids=["d3q19", "d3q27"])
    def test_opposite_is_involution(self, vs):
        assert np.all(vs.opposite[vs.opposite] == np.arange(vs.m))
        assert np.all(vs.e[vs.opposite] == -vs.e)

    @pytest.mark.parametrize("vs, m", [(D3Q19, 19), (D3Q27, 27)], ids=["d3q19-19", "d3q27-27"])
    def test_canonical_set_properties(self, vs, m):
        assert vs.e.shape == (m, 3) and vs.e.dtype == np.int64
        assert vs.w.shape == (m,) and vs.w.dtype == np.float64
        assert set(vs.e.ravel().tolist()) <= {-1, 0, 1}
        assert np.all(vs.e[0] == 0)  # rest first
        rows = {tuple(v) for v in vs.e.tolist()}
        assert len(rows) == m  # unique
        assert rows == {(-x, -y, -z) for x, y, z in rows}  # closed under negation
        assert np.all(vs.w > 0.0)
        assert abs(vs.w.sum() - 1.0) <= 1e-12

    @pytest.mark.parametrize("vs, m", [(D3Q19, 19), (D3Q27, 27)], ids=["d3q19-19", "d3q27-27"])
    def test_one_shared_read_only_set(self, vs, m):
        assert vs is lattice.velocity_set_for(m)
        for arr in (vs.e, vs.w, vs.opposite):
            with pytest.raises(ValueError):
                arr[0] = 0


class TestMoments:
    """total_mass and total_momentum, the conservation criterion's measures:
    the interior's summed density and momentum."""

    def test_density_zero_field(self, vs19):
        f = DistributionField((3, 3, 3), 19)
        assert total_mass(f) == 0.0
        assert not total_momentum(f, vs19).any()

    def test_density_weights_sum_to_one(self, vs19):
        f = DistributionField((3, 3, 3), 19)
        f.data[2, 2, 2, :] = vs19.w
        assert total_mass(f) == pytest.approx(1.0, abs=1e-15)

    def test_density_arange(self, vs19):
        f = DistributionField((2, 2, 2), 19)
        f.data[1, 2, 1, :] = np.arange(19)
        assert total_mass(f) == 171.0  # sum 0..18 = 18*19/2

    def test_density_out_of_range(self, vs19):
        # halo sites are copies of a neighbour's: neither moment counts them
        f = DistributionField((2, 2, 2), 19)
        f.data[0, 1, 1, :] = 1.0
        f.data[1, 1, 3, :] = 1.0
        assert total_mass(f) == 0.0
        assert not total_momentum(f, vs19).any()

    def test_velocity_symmetric_weights(self, vs19):
        f = DistributionField((2, 2, 2), 19)
        f.data[1, 1, 1, :] = vs19.w
        assert np.allclose(total_momentum(f, vs19), 0.0, atol=1e-16)

    def test_velocity_single_direction(self, vs19):
        f = DistributionField((2, 2, 2), 19)
        i = int(np.where((vs19.e == (1, 0, 0)).all(axis=1))[0][0])
        f.data[1, 1, 1, i] = 2.0
        f.data[1, 1, 1, 0] = 2.0
        assert total_mass(f) == 4.0
        assert np.array_equal(total_momentum(f, vs19), (2.0, 0.0, 0.0))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=20)
    def test_velocity_negation_symmetric_field(self, seed):
        vs = D3Q19
        rng = np.random.default_rng(seed)
        f = DistributionField((2, 2, 2), 19)
        half = rng.uniform(0.1, 1.0, size=19)
        f.data[1, 1, 1, :] = half[vs.opposite] + half  # f_i == f_opposite(i)
        assert np.allclose(total_momentum(f, vs), 0.0, atol=1e-15)

    def test_velocity_zero_density(self, vs19):
        # a site's velocity is its momentum over its density: collide,
        # which takes it, rejects a field of zero density
        f = DistributionField((2, 2, 2), 19)
        with pytest.raises(ZeroDensityError):
            collide(f, 1.0, vs19)


class TestEquilibrium:
    def test_rest_state_gives_weights(self, vs19):
        assert np.allclose(equilibrium(1.0, (0.0, 0.0, 0.0), vs19), vs19.w, atol=1e-16)

    def test_linear_in_rho_at_rest(self, vs19):
        assert np.allclose(
            equilibrium(2.0, (0.0, 0.0, 0.0), vs19), 2.0 * vs19.w, atol=1e-16
        )

    def test_moments_small_velocity(self, vs19):
        feq = equilibrium(1.0, (0.05, 0.0, 0.0), vs19)
        assert abs(feq.sum() - 1.0) <= 1e-14
        mom = feq @ vs19.e.astype(float)
        assert np.allclose(mom, (0.05, 0.0, 0.0), atol=1e-14)

    @given(
        st.floats(0.5, 2.0),
        st.tuples(st.floats(-0.1, 0.1), st.floats(-0.1, 0.1), st.floats(-0.1, 0.1)),
    )
    @settings(max_examples=60)
    def test_moment_identities(self, rho, u, ):
        vs = D3Q19
        feq = equilibrium(rho, u, vs)
        assert abs(feq.sum() - rho) <= 1e-14 * rho
        mom = feq @ vs.e.astype(float)
        assert np.allclose(mom, rho * np.asarray(u), atol=1e-14 * max(1.0, rho))

    def test_rejects_nonpositive_rho(self, vs19):
        with pytest.raises(ZeroDensityError):
            equilibrium(0.0, (0, 0, 0), vs19)


class TestCollide:
    def test_equilibrium_is_fixed_point(self, vs19):
        f = DistributionField((3, 3, 3), 19)
        f.interior()[...] = equilibrium(1.2, (0.01, -0.02, 0.03), vs19)
        before = f.data.copy()
        collide(f, 0.8, vs19)
        assert np.allclose(f.data, before, atol=1e-15)

    def test_tau_one_full_relaxation(self, vs19):
        rng = np.random.default_rng(1)
        f = lattice.random_state((3, 3, 3), vs19, rng)
        mom = vs19.E @ f.interior_components().reshape(19, -1)
        rho, j = mom[0], mom[1:].T
        u = j / rho[:, None]
        expected = equilibrium(rho, u, vs19, j=j)
        collide(f, 1.0, vs19)
        assert np.array_equal(f.interior().reshape(-1, 19), expected)
        assert np.allclose(expected, _seed_equilibrium(rho, u, vs19), rtol=0, atol=1e-14)

    @given(st.integers(0, 2**32 - 1), st.sampled_from([D3Q19, D3Q27]))
    @settings(max_examples=25)
    def test_conserves_density_and_momentum(self, seed, vs):
        rng = np.random.default_rng(seed)
        f = lattice.random_state((4, 3, 2), vs, rng)
        interior = f.interior()
        rho0 = interior.sum(axis=-1).copy()
        mom0 = (interior @ vs.e.astype(float)).copy()
        collide(f, 0.8, vs)
        rho1 = interior.sum(axis=-1)
        mom1 = interior @ vs.e.astype(float)
        assert np.all(np.abs(rho1 - rho0) <= 1e-13 * rho0)
        assert np.all(np.abs(mom1 - mom0) <= 1e-13)

    def test_rejects_small_tau(self, vs19):
        f = DistributionField((2, 2, 2), 19)
        f.interior()[...] = vs19.w
        with pytest.raises(ValueError):
            collide(f, 0.5, vs19)

    def test_rejects_non_finite(self, vs19):
        f = DistributionField((2, 2, 2), 19)
        f.data[1, 1, 1, 0] = np.nan
        with pytest.raises(FloatingPointError):
            collide(f, 1.0, vs19)


class TestStream:
    def test_rest_component_unchanged(self, vs19):
        rng = np.random.default_rng(2)
        f = DistributionField((3, 3, 3), 19)
        f.data[...] = rng.uniform(size=f.data.shape)
        out = stream(f, vs19)
        assert np.array_equal(out.interior()[..., 0], f.interior()[..., 0])

    @given(st.data())
    @settings(max_examples=30)
    def test_single_particle_trace(self, data):
        vs = D3Q19
        i = data.draw(st.integers(0, 18))
        site = tuple(data.draw(st.integers(1, 3)) for _ in range(3))
        f = DistributionField((3, 3, 3), 19)
        f.data[site + (i,)] = 1.0
        out = stream(f, vs)
        target = tuple(c + e for c, e in zip(site, vs.e[i].tolist()))
        interior = out.interior()
        if all(1 <= t <= 3 for t in target):
            assert out.data[target + (i,)] == 1.0
            assert interior[..., i].sum() == 1.0
        else:
            assert interior[..., i].sum() == 0.0  # left the interior, halo was empty

    def test_periodic_single_rank_conserves_mass(self, vs19):
        # fill the halo with the periodic wrap by hand, then stream
        rng = np.random.default_rng(3)
        f = DistributionField((4, 4, 4), 19)
        f.interior()[...] = rng.uniform(0.1, 1.0, size=f.interior().shape)
        mass0 = total_mass(f)
        f.data[...] = np.pad(f.interior(), [(1, 1)] * 3 + [(0, 0)], mode="wrap")
        out = stream(f, vs19)
        assert abs(total_mass(out) - mass0) <= 1e-13 * abs(mass0)


# -- the kernels as first written, kept as the bit-for-bit reference ----------


def _seed_equilibrium(rho, u, vs):
    rho = np.asarray(rho, dtype=np.float64)
    u = np.asarray(u, dtype=np.float64)
    if np.any(rho <= 0.0):
        raise ZeroDensityError("equilibrium needs strictly positive density")
    eu = u @ vs.e.T.astype(np.float64)
    usq = np.sum(u * u, axis=-1)[..., np.newaxis]
    return vs.w * rho[..., np.newaxis] * (1.0 + 3.0 * eu + 4.5 * eu * eu - 1.5 * usq)


def _seed_collide(field, tau, vs):
    if not tau > 0.5:
        raise ValueError(f"tau={tau}: relaxation time must exceed 0.5")
    f = field.interior()
    if not np.isfinite(f).all():
        raise FloatingPointError("collide on a non-finite field")
    rho = f.sum(axis=-1)
    u = (f @ vs.e.astype(np.float64)) / rho[..., np.newaxis]
    feq = _seed_equilibrium(rho, u, vs)
    f -= (f - feq) / tau


def _moment_collide(field, tau, vs):
    """The moment-space BGK that ``collide`` computes, written plainly: one
    product per matrix over the whole padded store, interior written back."""
    f = field.store.reshape(field.m, -1)
    with np.errstate(all="ignore"):
        mom = vs.E @ f
        u = mom[1:] / mom[0]
        q = np.concatenate([mom, mom[1:] * u, mom[[1, 1, 2]] * u[[1, 2, 2]]])
        new = vs.A / tau @ q + (1.0 - 1.0 / tau) * f
    field.interior_components()[...] = new.reshape(field.store.shape)[:, 1:-1, 1:-1, 1:-1]


def _seed_stream(field, vs, out=None):
    lx, ly, lz = field.local_dims
    if out is None:
        out = DistributionField(field.local_dims, field.m)
    elif out.local_dims != field.local_dims or out.m != field.m:
        raise ValueError("output field shape mismatch")
    src = field.data
    dst = out.data
    dst.fill(0.0)
    for i, (ex, ey, ez) in enumerate(vs.e.tolist()):
        dst[1:lx + 1, 1:ly + 1, 1:lz + 1, i] = src[
            1 - ex:lx + 1 - ex, 1 - ey:ly + 1 - ey, 1 - ez:lz + 1 - ez, i
        ]
    return out


def _seed_random_state(local_dims, vs, rng, du=0.02, equilibrium=_seed_equilibrium):
    field = DistributionField(local_dims, vs.m)
    shape = field.local_dims
    rho = 1.0 + 0.1 * rng.uniform(-1.0, 1.0, size=shape)
    u = du * rng.uniform(-1.0, 1.0, size=shape + (3,))
    feq = equilibrium(rho, u, vs)
    field.interior()[...] = feq * (1.0 + 0.05 * rng.uniform(-1.0, 1.0, size=feq.shape))
    return field


def _shell(data):
    """Every halo-shell value of a field's data, flattened."""
    inside = np.zeros(data.shape[:3], dtype=bool)
    inside[1:-1, 1:-1, 1:-1] = True
    return data[~inside]


class TestKernelsMatchReference:
    @given(
        dims=st.tuples(st.integers(1, 11), st.integers(1, 11), st.integers(1, 11)),
        vs=st.sampled_from([D3Q19, D3Q27]),
        tau=st.floats(0.5, 2.0, exclude_min=True),
        seed=st.integers(0, 2**32 - 1),
        in_place=st.booleans(),
        subset=st.one_of(st.none(), st.sets(st.integers(0, 26))),
    )
    @example(dims=(1, 4, 3), vs=D3Q27, tau=0.8, seed=5, in_place=True, subset=None)
    @example(dims=(1, 2, 1), vs=D3Q19, tau=1.3, seed=6, in_place=True, subset={0, 2, 9, 18})
    @settings(max_examples=60)
    def test_bit_for_bit(self, dims, vs, tau, seed, in_place, subset):
        rng = np.random.default_rng(seed)
        field = DistributionField(dims, vs.m)
        field.data[...] = rng.uniform(0.01, 1.0, size=field.data.shape)
        streamed = _seed_stream(field, vs)

        if in_place:
            out = field
        else:
            out = DistributionField(dims, vs.m)
            out.data[...] = rng.uniform(-1e300, 1e300, size=out.data.shape)
            out.data[rng.uniform(size=out.data.shape) < 0.3] = np.nan
        before = out.interior_components().copy()
        shell = _shell(out.data).tobytes()
        components = None if subset is None else sorted(i for i in subset if i < vs.m)
        got = stream(field, vs, out=out, components=components)
        assert got is out
        chosen = np.zeros(vs.m, dtype=bool)
        chosen[list(range(vs.m)) if components is None else components] = True
        assert np.array_equal(got.interior_components()[chosen],
                              streamed.interior_components()[chosen])
        # the other components keep their bits, and stream writes no halo
        # value: the shell keeps its bits, NaNs included
        assert got.interior_components()[~chosen].tobytes() == before[~chosen].tobytes()
        assert _shell(got.data).tobytes() == shell

        expected = DistributionField(dims, vs.m)
        expected.store[...] = field.store
        _moment_collide(expected, tau, vs)
        seed = DistributionField(dims, vs.m)
        seed.store[...] = field.store
        _seed_collide(seed, tau, vs)
        collide(field, tau, vs)
        assert np.array_equal(field.data, expected.data)
        assert np.allclose(field.data, seed.data, rtol=0, atol=1e-14)

    @given(
        dims=st.tuples(st.integers(1, 11), st.integers(1, 11), st.integers(1, 11)),
        vs=st.sampled_from([D3Q19, D3Q27]),
        tau=st.floats(0.5, 2.0, exclude_min=True),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    @settings(max_examples=60)
    def test_x_slabs_equal_the_whole_field(self, dims, vs, tau, seed, data):
        lx, ly, lz = dims
        cuts = sorted(data.draw(st.sets(st.integers(2, lx + 1), max_size=lx - 1)) - {lx + 1})
        edges = [1, *cuts, lx + 1]
        slabs = [(slice(a, b), slice(1, ly + 1), slice(1, lz + 1))
                 for a, b in zip(edges, edges[1:])]
        slabs = data.draw(st.permutations(slabs))
        rng = np.random.default_rng(seed)
        field = DistributionField(dims, vs.m)
        field.data[...] = rng.uniform(0.01, 1.0, size=field.data.shape)
        # outputs start as garbage, NaNs included, so a missed or stray write shows
        whole = DistributionField(dims, vs.m)
        whole.data[...] = rng.uniform(-1e300, 1e300, size=whole.data.shape)
        whole.data[rng.uniform(size=whole.data.shape) < 0.3] = np.nan
        split = DistributionField(dims, vs.m)
        split.store[...] = whole.store

        stream(field, vs, out=whole)
        for box in slabs:
            stream(field, vs, out=split, box=box)
        assert split.store.tobytes() == whole.store.tobytes()

        collide(whole, tau, vs)
        for box in slabs:
            collide(split, tau, vs, box=box)
        assert split.store.tobytes() == whole.store.tobytes()

    @given(
        dims=st.tuples(st.integers(1, 11), st.integers(1, 11), st.integers(1, 11)),
        vs=st.sampled_from([D3Q19, D3Q27]),
        du=st.sampled_from([0.0, 0.02, 0.05, 0.1]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40)
    def test_random_state_bit_for_bit(self, dims, vs, du, seed):
        rng = np.random.default_rng(seed)
        ref_rng = np.random.default_rng(seed)
        got = lattice.random_state(dims, vs, rng, du=du)
        expected = _seed_random_state(dims, vs, ref_rng, du=du, equilibrium=equilibrium)
        # the whole store, so the halo shell must stay zero as well
        assert np.array_equal(got.store, expected.store)
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        seed = _seed_random_state(dims, vs, np.random.default_rng(seed), du=du)
        assert np.allclose(got.store, seed.store, rtol=0, atol=1e-14)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=20)
    def test_equilibrium_bit_for_bit(self, seed):
        vs = D3Q19
        rng = np.random.default_rng(seed)
        rho = rng.uniform(0.5, 1.5, size=(3, 4, 5))
        u = rng.uniform(-0.1, 0.1, size=(3, 4, 5, 3))
        got = equilibrium(rho, u, vs)
        # the moment-space formula written site-major: Q (..., 10) @ A.T
        j = rho[..., None] * u
        q = np.concatenate([rho[..., None], j, j * u, j[..., [0, 0, 1]] * u[..., [1, 2, 2]]],
                           axis=-1)
        assert np.array_equal(got, q @ vs.A.T)
        assert np.array_equal(equilibrium(rho[0, 0, 0], u[0, 0, 0], vs), got[0, 0, 0])
        assert np.allclose(got, _seed_equilibrium(rho, u, vs), rtol=0, atol=1e-14)


class TestCollideErrors:
    DIMS = (4, 3, 5)

    def _field(self, vs):
        return lattice.random_state(self.DIMS, vs, np.random.default_rng(7))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_in_last_plane(self, vs19, bad):
        f = self._field(vs19)
        f.data[self.DIMS[0], 2, 3, 11] = bad
        before = f.data.copy()
        with pytest.raises(FloatingPointError):
            collide(f, 0.8, vs19)
        assert np.array_equal(f.data, before, equal_nan=True)

    @pytest.mark.parametrize("rho", [0.0, -0.5])
    def test_nonpositive_density(self, vs19, rho):
        f = self._field(vs19)
        f.data[2, 1, 4, :] = rho / vs19.m
        before = f.data.copy()
        with pytest.raises(ZeroDensityError):
            collide(f, 0.8, vs19)
        assert np.array_equal(f.data, before)

    def test_nan_in_halo_only(self, vs19):
        f = self._field(vs19)
        f.data[0, 0, 0, :] = np.nan
        f.data[-1, 2, 3, 5] = np.nan
        expected = DistributionField(self.DIMS, vs19.m)
        expected.store[...] = f.store
        _moment_collide(expected, 0.8, vs19)
        seed = DistributionField(self.DIMS, vs19.m)
        seed.store[...] = f.store
        _seed_collide(seed, 0.8, vs19)
        collide(f, 0.8, vs19)
        assert np.array_equal(f.data, expected.data, equal_nan=True)
        assert np.allclose(f.data, seed.data, rtol=0, atol=1e-14, equal_nan=True)

    @pytest.mark.parametrize("vs", [D3Q19, D3Q27], ids=["d3q19", "d3q27"])
    @pytest.mark.parametrize("xs", [slice(1, 5), slice(2, 4)], ids=["interior", "slab"])
    def test_zero_and_nan_halo_warn_nothing(self, vs, xs):
        # a zero halo, as past an open edge, gives 0/0 in the products
        f = self._field(vs)
        f.data[2, 0, 3, :] = np.nan
        f.data[3, 2, -1, 5] = np.nan
        box = (xs, slice(1, 4), slice(1, 6))
        expected = DistributionField(self.DIMS, vs.m)
        expected.store[...] = f.store
        _moment_collide(expected, 0.8, vs)
        shell = _shell(f.data).tobytes()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            collide(f, 0.8, vs, box=box)
        assert _shell(f.data).tobytes() == shell
        assert np.array_equal(f.data[box], expected.data[box])


class TestKernelAllocations:
    """Neither kernel nor the seeded fill allocates a temporary as large as
    the interior."""

    L = 16

    def _peak(self, fn):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            fn()
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    def test_peaks_below_one_interior(self, vs19):
        dims = (self.L,) * 3
        f = lattice.random_state(dims, vs19, np.random.default_rng(4))
        out = DistributionField(dims, vs19.m)
        limit = 8 * vs19.m * self.L**3
        assert self._peak(lambda: collide(f, 0.8, vs19)) < limit
        assert self._peak(lambda: stream(f, vs19, out=out)) < limit
        assert self._peak(lambda: stream(f, vs19, out=f)) < limit

    def test_random_state_peak_below_one_interior(self, vs19):
        dims = (self.L,) * 3
        lattice.random_state(dims, vs19, np.random.default_rng(4))  # warm-up
        store = 8 * vs19.m * (self.L + 2) ** 3
        peak = self._peak(lambda: lattice.random_state(dims, vs19, np.random.default_rng(5)))
        assert peak - store < 8 * vs19.m * self.L**3


class TestField:
    @pytest.mark.parametrize("L", list(range(1, 65)))
    def test_halo_site_count_formula(self, L):
        # metrics.halo_sites counts the shell of the field as it is stored
        f = DistributionField((L, L, L), 1)
        assert f.store.size - f.interior().size == halo_sites(f.local_dims)
        assert halo_sites(f.local_dims) == 6 * L * L + 12 * L + 8

    def test_halo_count_against_direct_set(self):
        for L in (1, 2, 3, 5, 8):
            box = {
                (x, y, z)
                for x in range(L + 2)
                for y in range(L + 2)
                for z in range(L + 2)
            }
            interior = {
                (x, y, z)
                for x in range(1, L + 1)
                for y in range(1, L + 1)
                for z in range(1, L + 1)
            }
            assert halo_sites((L, L, L)) == len(box - interior)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            DistributionField((0, 2, 2), 19)
        with pytest.raises(ValueError):
            DistributionField((2, 2, 2), 28)
