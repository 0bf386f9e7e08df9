import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from halolab.errors import ConfigurationError
from halolab.topology import (
    DISPLACEMENTS,
    HaloNeighbour,
    NO_NEIGHBOUR,
    OPPOSITE_DISPLACEMENT,
    CartesianTopology,
    decompose,
    displacement_index,
)


class TestDisplacements:
    def test_count_and_groups(self):
        assert len(DISPLACEMENTS) == 26
        weights = [sum(abs(c) for c in d) for d in DISPLACEMENTS]
        assert weights.count(1) == 6 and weights.count(2) == 12 and weights.count(3) == 8

    def test_enum_order_matches_flattened_loops(self):
        # index(d) = 9(dx+1)+3(dy+1)+(dz+1), minus one after the skipped centre
        for i, (dx, dy, dz) in enumerate(DISPLACEMENTS):
            raw = 9 * (dx + 1) + 3 * (dy + 1) + (dz + 1)
            assert i == (raw if raw < 13 else raw - 1)

    def test_enum_names(self):
        assert HaloNeighbour.NNN == 0
        assert HaloNeighbour.MNP == displacement_index((0, -1, 1))
        assert HaloNeighbour.PPP == 25

    def test_opposite_table(self):
        for i, d in enumerate(DISPLACEMENTS):
            j = OPPOSITE_DISPLACEMENT[i]
            assert DISPLACEMENTS[j] == tuple(-c for c in d)

    def test_bad_displacement(self):
        with pytest.raises(ValueError):
            displacement_index((0, 0, 0))
        with pytest.raises(ValueError):
            displacement_index((2, 0, 0))


class TestCartRank:
    def test_origin(self):
        topo = CartesianTopology((3, 3, 3))
        assert topo.row_major_rank(0, 0, 0) == 0
        assert topo.cart_coords(0) == (0, 0, 0)

    def test_periodic_wrap(self):
        topo = CartesianTopology((3, 3, 3))
        # (0, 0, 0) + (0, -1, 1) wraps to (0, 2, 1)
        assert topo.full_neighbours(0)[HaloNeighbour.MNP] == 7

    def test_row_major(self):
        topo = CartesianTopology((4, 3, 2))
        assert topo.row_major_rank(3, 2, 1) == 23  # (3*3+2)*2+1
        assert topo.cart_coords(23) == (3, 2, 1)

    def test_non_periodic_out_of_range(self):
        topo = CartesianTopology((3, 3, 3), periodic=(False, True, True))
        full = topo.full_neighbours(0)
        assert full[HaloNeighbour.NMM] == NO_NEIGHBOUR
        assert full[HaloNeighbour.MNM] == topo.row_major_rank(0, 2, 0)

    def test_bijectivity_sweep(self):
        topo = CartesianTopology((5, 4, 3))
        for r in range(topo.nranks):
            assert topo.row_major_rank(*topo.cart_coords(r)) == r
        # each neighbour is the coordinate sum, wrapped on periodic axes and
        # absent past an open edge
        for periodic in (True, (False, True, False)):
            topo = CartesianTopology((5, 4, 3), periodic=periodic)
            for r in range(topo.nranks):
                coords = topo.cart_coords(r)
                for d, n in zip(DISPLACEMENTS, topo.full_neighbours(r)):
                    target = [c + e for c, e in zip(coords, d)]
                    if any(not per and not 0 <= t < size
                           for t, size, per in zip(target, topo.dims, topo.periodic)):
                        assert n == NO_NEIGHBOUR
                    else:
                        assert topo.cart_coords(n) == tuple(
                            t % size for t, size in zip(target, topo.dims))

    def test_row_major_rank_on_arrays(self):
        topo = CartesianTopology((5, 4, 3))
        x, y, z = np.ix_(range(5), range(4), range(3))
        ranks = topo.row_major_rank(x, y, z)
        assert ranks.shape == (5, 4, 3)
        assert ranks.ravel().tolist() == list(range(topo.nranks))
        for r in range(topo.nranks):
            assert ranks[topo.cart_coords(r)] == r

    def test_bad_rank(self):
        topo = CartesianTopology((2, 2, 2))
        with pytest.raises(ConfigurationError):
            topo.cart_coords(8)


class TestOrthogonalNeighbours:
    def test_rank0_x_neighbours(self):
        full = CartesianTopology((3, 3, 3)).full_neighbours(0)
        assert full[HaloNeighbour.NMM] == 18  # (2,0,0)
        assert full[HaloNeighbour.PMM] == 9   # (1,0,0)

    def test_self_neighbour_single_rank(self):
        full = CartesianTopology((1, 1, 1)).full_neighbours(0)
        faces = ("NMM", "PMM", "MNM", "MPM", "MMN", "MMP")
        assert all(full[HaloNeighbour[name]] == 0 for name in faces)

    def test_open_boundary_sentinel(self):
        full = CartesianTopology((2, 1, 1), periodic=False).full_neighbours(0)
        assert full[HaloNeighbour.NMM] == NO_NEIGHBOUR
        assert full[HaloNeighbour.PMM] == 1


class TestFullNeighbours:
    def test_centre_rank_mnp(self):
        topo = CartesianTopology((3, 3, 3))
        full = topo.full_neighbours(13)  # coords (1,1,1)
        assert full[HaloNeighbour.MNP] == 11  # (1,0,2)

    def test_single_rank_all_self(self):
        topo = CartesianTopology((1, 1, 1))
        assert topo.full_neighbours(0) == (0,) * 26

    @pytest.mark.parametrize("dims", [(1, 1, 1), (2, 2, 2), (3, 2, 1), (4, 3, 2)])
    def test_displacement_inverse_symmetry(self, dims):
        topo = CartesianTopology(dims)
        for r in range(topo.nranks):
            full = topo.full_neighbours(r)
            for i, s in enumerate(full):
                back = topo.full_neighbours(s)
                assert back[OPPOSITE_DISPLACEMENT[i]] == r

    def test_ppp_nnn_pairing(self):
        topo = CartesianTopology((3, 3, 3))
        for r in range(topo.nranks):
            s = topo.full_neighbours(r)[HaloNeighbour.PPP]
            assert topo.full_neighbours(s)[HaloNeighbour.NNN] == r

    @given(
        st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4)),
        st.integers(0, 2**16),
    )
    @settings(max_examples=40)
    def test_neighbour_ranks_always_valid_when_periodic(self, dims, pick):
        topo = CartesianTopology(dims)
        rank = pick % topo.nranks
        for n in topo.full_neighbours(rank):
            assert 0 <= n < topo.nranks


class TestDecompose:
    def test_uniform_splits(self):
        assert decompose((96, 96, 96), (4, 3, 2)) == (24, 32, 48)
        assert decompose((192, 192, 192), (4, 3, 2)) == (48, 64, 96)
        assert decompose((8, 8, 8), (2, 2, 2)) == (4, 4, 4)

    def test_rejects_non_divisible(self):
        with pytest.raises(ConfigurationError):
            decompose((10, 10, 10), (3, 2, 1))

    def test_rejects_nonpositive(self):
        with pytest.raises(ConfigurationError):
            decompose((0, 4, 4), (1, 1, 1))


def test_topology_validation():
    with pytest.raises(ConfigurationError):
        CartesianTopology((0, 1, 1))
    topo = CartesianTopology((2, 2, 2), periodic=True)
    assert topo.periodic == (True, True, True)
