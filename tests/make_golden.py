"""Write ``tests/golden.json``, the halo-exchange equivalence record.

For every case below, each rank fills its interior from
``default_rng([SEED, rank])`` and runs one exchange per strategy.  The
record keeps, per case, rank and strategy, the SHA-256 digest of each
send's (destination, tag, bytes) in post order and of the final halo
shell, and the numpy version that made it.  ``test_equivalence.py``
recomputes the digests and compares them with the file.

Run from the repository root:

    PYTHONPATH=src python tests/make_golden.py
"""

import hashlib
import json
from pathlib import Path

import numpy as np

from halolab import lattice
from halolab.halo import HaloBuffers, exchange
from halolab.runner import run_ranks
from halolab.topology import CartesianTopology
from helpers import halo_shell

GOLDEN = Path(__file__).with_name("golden.json")

SEED = 27
LOCAL_DIMS = (2, 3, 4)
# (name, rank grid, periodic)
GRIDS = (("periodic-2x2x2", (2, 2, 2), True), ("open-3x2x1", (3, 2, 1), False))
COMPONENTS = (19, 27)
STRATEGIES = ("blocking", "nonblocking")


class _SendLog:
    """An endpoint that forwards every call and keeps the digest of each
    send's (destination, tag, bytes) when it is posted, in post order."""

    def __init__(self, inner):
        self.inner = inner
        self.digests = []

    def post_send(self, dest, tag, payload):
        self.digests.append(hashlib.sha256(f"{dest},{tag},".encode() + bytes(payload)).hexdigest())
        return self.inner.post_send(dest, tag, payload)

    def __getattr__(self, name):
        return getattr(self.inner, name)


def _case(proc_dims, periodic, m, strategy):
    topo = CartesianTopology(proc_dims, periodic=periodic)

    def body(ctx):
        f = lattice.DistributionField(LOCAL_DIMS, m)
        f.interior()[...] = np.random.default_rng([SEED, ctx.rank]).uniform(
            -1.0, 1.0, size=f.interior().shape)
        ep = _SendLog(ctx.endpoint)
        exchange(f, topo, HaloBuffers(topo, ctx.rank, LOCAL_DIMS, m, ep), strategy)
        return {"sends": ep.digests, "shell": hashlib.sha256(halo_shell(f).tobytes()).hexdigest()}

    return run_ranks(topo.nranks, body, watchdog_seconds=10.0)


def records():
    """Record name -> {"sends": [digest, ...], "shell": digest}."""
    out = {}
    for name, proc_dims, periodic in GRIDS:
        for m in COMPONENTS:
            for strategy in STRATEGIES:
                for rank, record in enumerate(_case(proc_dims, periodic, m, strategy)):
                    out[f"{name} m={m} rank {rank} {strategy}"] = record
    return out


def main():
    golden = {"numpy": np.__version__, "records": records()}
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(golden['records'])} records to {GOLDEN}")


if __name__ == "__main__":
    main()
