"""Component-major storage of DistributionField and what rests on it."""

import numpy as np
import pytest

from halolab import lattice
from halolab.lattice import D3Q19, D3Q27, DistributionField
from helpers import equilibrium


def test_data_is_a_writable_view_of_store():
    f = DistributionField((2, 3, 4), 5)
    assert f.store.shape == (5, 4, 5, 6) and f.store.flags.c_contiguous
    assert f.data.shape == (4, 5, 6, 5) and f.data.flags.writeable
    assert np.shares_memory(f.data, f.store)
    f.data[1, 2, 3, 4] = 7.0
    assert f.store[4, 1, 2, 3] == 7.0
    f.store[2, 3, 1, 5] = -1.0
    assert f.data[3, 1, 5, 2] == -1.0
    f.interior()[...] = 2.0
    assert (f.interior_components() == 2.0).all()
    assert f.store.sum() == 2.0 * f.interior().size - 1.0  # halo value kept


def _site_major_equilibrium(rho, u, vs):
    eu = u @ vs.e.T.astype(np.float64)
    usq = np.sum(u * u, axis=-1)[..., np.newaxis]
    return vs.w * rho[..., np.newaxis] * (1.0 + 3.0 * eu + 4.5 * eu * eu - 1.5 * usq)


@pytest.mark.parametrize("vs", [D3Q19, D3Q27], ids=["d3q19", "d3q27"])
@pytest.mark.parametrize("dims", [(5, 3, 4), (1, 1, 1), (12, 11, 10)])
def test_equilibrium_matches_the_site_major_formula(vs, dims):
    rng = np.random.default_rng(dims)
    rho = rng.uniform(0.5, 1.5, size=dims)
    u = rng.uniform(-0.1, 0.1, size=dims + (3,))
    # the moment-space product sums in another order: equal to round-off
    assert np.allclose(equilibrium(rho, u, vs), _site_major_equilibrium(rho, u, vs),
                       rtol=0, atol=1e-14)


@pytest.mark.parametrize("vs", [D3Q19, D3Q27], ids=["d3q19", "d3q27"])
def test_random_state_matches_the_site_major_draw(vs):
    # the draw as it was made into site-major storage: rho, u, then one
    # noise factor per site and component, in C order
    dims = (5, 3, 4)
    rng = np.random.default_rng(123)
    rho = 1.0 + 0.1 * rng.uniform(-1.0, 1.0, size=dims)
    u = 0.02 * rng.uniform(-1.0, 1.0, size=dims + (3,))
    feq = equilibrium(rho, u, vs)
    expected = feq * (1.0 + 0.05 * rng.uniform(-1.0, 1.0, size=feq.shape))
    got = lattice.random_state(dims, vs, np.random.default_rng(123))
    assert np.array_equal(got.interior(), expected)
    got.interior()[...] = 0.0
    assert not got.store.any()
