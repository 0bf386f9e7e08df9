"""The fixed benchmark workloads and the analytic values checked against them.

Every input is fixed here: rank grid, subdomain size, cost model and the
synthetic overlap intensity.  Only the field values come from ``--seed``.
The intensity is a constant, never recalibrated at run time, so a change
of host speed shows up in the figures instead of being tuned away.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from halolab import lattice
from halolab.config import RunConfig
from halolab.transport import TransportModel

STRATEGIES = ("blocking", "nonblocking")
M = 19  # D3Q19: values per site
TAU = 1.0  # BGK relaxation time


@dataclass(frozen=True)
class Workload:
    name: str
    proc_dims: tuple
    L: int
    physics: str = "none"
    iterations: int = 1  # timed steps per benchmark call, i.e. per sample
    warmup: int = 1
    model: tuple = None  # (latency_us, bandwidth_MBps) of the injected cost model
    intensity: int = 0  # synthetic passes per step; nonblocking runs them overlapped

    @property
    def nranks(self):
        px, py, pz = self.proc_dims
        return px * py * pz

    def config(self, strategy, seed, iterations=None, warmup=None):
        """The RunConfig one benchmark call of ``strategy`` runs."""
        cfg = RunConfig(
            proc_dims=self.proc_dims,
            local_dims=(self.L,) * 3,
            m=M,
            strategy=strategy,
            iterations=self.iterations if iterations is None else iterations,
            repetitions=1,
            warmup=self.warmup if warmup is None else warmup,
            tau=TAU,
            seed=seed,
            physics=self.physics,
            overlap_intensity=self.intensity,
            overlap_enabled=self.intensity > 0 and strategy == "nonblocking",
        )
        if self.model is not None:
            cfg.model_latency_us, cfg.model_bandwidth_MBps = self.model
        return cfg.validate()

    def transport_model(self):
        if self.model is None:
            return None
        latency_us, bandwidth_MBps = self.model
        return TransportModel(latency_us * 1e-6, bandwidth_MBps)

    def make_field(self, seed, rank):
        """The rank's seeded starting field, drawn as ``halolab bench`` draws it."""
        rng = np.random.default_rng([seed, rank])
        local = (self.L,) * 3
        if self.physics == "full":
            return lattice.random_state(local, lattice.velocity_set_for(M), rng)
        field = lattice.DistributionField(local, M)
        field.interior()[...] = rng.uniform(0.5, 1.5, size=field.interior().shape)
        return field

    def message_bytes(self, strategy):
        """Bytes of each message one rank sends per exchange, from geometry alone."""
        L, site = self.L, 8 * M
        if strategy == "blocking":
            # staged X, Y, Z: later stages forward the halo received earlier
            faces = (L * L, (L + 2) * L, (L + 2) * (L + 2))
            return [n * site for n in faces for _ in range(2)]
        return [
            site * int(np.prod([1 if c else L for c in d]))
            for d in product((-1, 0, 1), repeat=3)
            if d != (0, 0, 0)
        ]

    def halo_bytes(self):
        """(6L^2 + 12L + 8) * 8m: the halo shell, the same for both strategies."""
        L = self.L
        return (6 * L * L + 12 * L + 8) * 8 * M

    def model_cost_s(self, strategy):
        """Modelled cost of one rank's exchange; 0 without a cost model."""
        model = self.transport_model()
        if model is None:
            return 0.0
        return sum(model.delay(n) for n in self.message_bytes(strategy))


# Why each workload exists is recorded in BENCHMARK.json and README.md.
# The listed workloads run one rank: with two, every exchange waits on a
# cross-core wake-up, and under hypervisor steal those waits tripled the
# step time between runs (README, "Why one rank").
WORKLOADS = {
    w.name: w
    for w in (
        # messages of 152 B to 2.4 KB: transport and halo are the whole step
        Workload("halo-L4-1r", (1, 1, 1), 4, iterations=40, warmup=2),
        # stream + collide are >90 % of the step
        Workload("lbm-L32-1r", (1, 1, 1), 32, physics="full", iterations=2, warmup=1),
        # the cost model anchors the step; 700 passes is W ~ 2.9 ms, about the
        # modelled nonblocking exchange, at ~4 us per pass (README: host)
        Workload(
            "overlap-L16-model", (1, 1, 1), 16, iterations=10, warmup=2,
            model=(100.0, 1000.0), intensity=700,
        ),
        # not in BENCHMARK.json: two ranks for cross-thread wake-ups, rank
        # skew and weak scaling, reference figures only
        Workload("halo-L4-2r", (2, 1, 1), 4, iterations=40, warmup=2),
        Workload("lbm-L32-2r", (2, 1, 1), 32, physics="full", iterations=2, warmup=1),
    )
}
