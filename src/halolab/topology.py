"""Cartesian rank topology: periodic wrap and the 26-neighbour table.

Ranks are laid out row-major (x slowest): rank = (x*Py + y)*Pz + z.  The
26 off-centre displacements are enumerated x-outer, y-middle, z-inner over
{-1, 0, +1} with (0, 0, 0) skipped, and named by letters N/M/P per axis
(Negative, Middle, Positive), so NNN is (-1,-1,-1) and PPP is (+1,+1,+1).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from functools import lru_cache
from itertools import product

from .errors import ConfigurationError

NO_NEIGHBOUR = -1

_LETTER = {-1: "N", 0: "M", 1: "P"}

DISPLACEMENTS = tuple(d for d in product((-1, 0, 1), repeat=3) if d != (0, 0, 0))

HaloNeighbour = IntEnum(
    "HaloNeighbour",
    {"".join(_LETTER[c] for c in d): i for i, d in enumerate(DISPLACEMENTS)},
)

_DISPLACEMENT_INDEX = {d: i for i, d in enumerate(DISPLACEMENTS)}

# index(-d) == 25 - index(d) under the fixed enumeration order
OPPOSITE_DISPLACEMENT = tuple(25 - i for i in range(26))


def displacement_index(d):
    """Index of a displacement in the fixed NNN..PPP order."""
    try:
        return _DISPLACEMENT_INDEX[tuple(d)]
    except KeyError:
        raise ValueError(f"{d} is not a valid off-centre displacement") from None


@dataclass(frozen=True)
class CartesianTopology:
    """Rank <-> 3D coordinate mapping with optional periodic wrap per dimension."""

    dims: tuple
    periodic: tuple = (True, True, True)

    def __post_init__(self):
        dims = tuple(int(v) for v in self.dims)
        if len(dims) != 3 or min(dims) < 1:
            raise ConfigurationError(f"invalid rank grid {self.dims}")
        if isinstance(self.periodic, bool):
            per = (self.periodic,) * 3
        else:
            per = tuple(bool(v) for v in self.periodic)
        if len(per) != 3:
            raise ConfigurationError("periodic must give one flag per dimension")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "periodic", per)

    @property
    def nranks(self):
        px, py, pz = self.dims
        return px * py * pz

    def row_major_rank(self, x, y, z):
        """Rank of in-range coordinates; x, y, z may be broadcasting arrays."""
        _, py, pz = self.dims
        return (x * py + y) * pz + z

    def cart_coords(self, rank):
        rank = int(rank)
        if not 0 <= rank < self.nranks:
            raise ConfigurationError(f"rank {rank} outside 0..{self.nranks - 1}")
        _, py, pz = self.dims
        x, rem = divmod(rank, py * pz)
        y, z = divmod(rem, pz)
        return (x, y, z)

    def full_neighbours(self, rank):
        """All 26 neighbour ranks in the fixed NNN..PPP displacement order,
        wrapped on periodic axes; NO_NEIGHBOUR past an open edge."""
        self.cart_coords(rank)  # rejects a rank outside the grid
        return _neighbour_table(self)[int(rank)]


@lru_cache(maxsize=64)
def _neighbour_table(topo):
    """Row r: the 26 neighbours of rank r.  Cached per grid, since equal
    topologies hash alike."""
    # per axis and coordinate: the coordinates one step toward -1, 0 and +1,
    # None past an open edge, so their product runs in displacement order
    moves = [[[(c + d) % n if per else c + d if 0 <= c + d < n else None for d in (-1, 0, 1)]
              for c in range(n)] for n, per in zip(topo.dims, topo.periodic)]
    table = []
    for coords in product(*map(range, topo.dims)):
        row = [NO_NEIGHBOUR if None in c else topo.row_major_rank(*c)
               for c in product(*(axis[i] for axis, i in zip(moves, coords)))]
        table.append(tuple(row[:13] + row[14:]))  # row[13] is the rank itself
    return tuple(table)


def decompose(global_dims, proc_dims):
    """Uniform per-rank local dimensions; rejects non-divisible splits."""
    local = []
    for g, p in zip(global_dims, proc_dims):
        g, p = int(g), int(p)
        if g < 1 or p < 1:
            raise ConfigurationError("dimensions must be positive")
        if g % p:
            raise ConfigurationError(
                f"global extent {g} not divisible by {p} ranks in that dimension"
            )
        local.append(g // p)
    return tuple(local)
