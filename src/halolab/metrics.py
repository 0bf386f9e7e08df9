"""Derived benchmark quantities: cost model, ratios, bandwidth, scaling stats.

Units are SI internally (seconds, bytes); MBytes means 1e6 bytes in all
reported bandwidths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConfigurationError


def total_cost(model, message_sizes):
    """Total time for a message inventory under a ``transport.TransportModel``:
    N*l + (sum of sizes)/B.

    Algebraically the sum of ``model.delay`` over the list, regrouped so the
    latency term is exactly N*l; the cost difference between two
    inventories with equal total bytes is then pure latency.
    """
    sizes = list(message_sizes)
    for s in sizes:
        if s < 0:
            raise ValueError("message size must be non-negative")
    return len(sizes) * model.latency_s + math.fsum(sizes) / (
        model.bandwidth_MBps * 1e6
    )


def halo_sites(local_dims):
    """Exact halo-shell site count: (a+2)(b+2)(c+2) - abc."""
    a, b, c = (int(v) for v in local_dims)
    if min(a, b, c) < 1:
        raise ValueError("dimensions must be positive")
    return (a + 2) * (b + 2) * (c + 2) - a * b * c


def halo_bytes(local_dims, m):
    """Bytes in one full halo shell of m 8-byte components."""
    return halo_sites(local_dims) * 8 * m


def comm_work_ratio(local_dims):
    """Analytic communication-to-work scaling for a box (a, b, c).

    (2(a^2 + b^2 + c^2) + 4(a + b + c) + 8) / (a*b*c); the plane term uses
    the squared per-axis extents of the scaling model, which coincides
    with the geometric face count only in the cubic case, where it is
    (6L^2 + 12L + 8) / L^3.  For exact byte accounting use halo_sites
    instead.
    """
    a, b, c = (float(v) for v in local_dims)
    if min(a, b, c) < 1:
        raise ValueError("dimensions must be positive")
    planes = 2.0 * (a * a + b * b + c * c)
    edges = 4.0 * (a + b + c)
    return (planes + edges + 8.0) / (a * b * c)


def effective_bandwidth(local_dims, m, t_exchange):
    """Halo bytes moved per exchange second, in MBytes/s.

    halo_bytes(dims, m) / t / 1e6; t is the time of one exchange.
    """
    if not t_exchange > 0.0:
        raise ValueError("exchange time must be positive")
    return halo_bytes(local_dims, m) / t_exchange / 1e6


def updates_per_core(local_dims, t_exchange):
    """Interior sites divided by the per-exchange time (sites/s).

    A communication-cost proxy: t is exchange time, not full-step time.
    """
    if not t_exchange > 0.0:
        raise ValueError("exchange time must be positive")
    a, b, c = (int(v) for v in local_dims)
    return a * b * c / t_exchange


def speedup(times_by_p, t_base):
    """S(p) = t_base / T_p over a {task count: runtime} series.

    Every series of a comparison is measured against one shared baseline
    runtime (common-T1 mode), which keeps speedup rankings identical to
    runtime rankings across code versions.
    """
    if not times_by_p:
        raise ConfigurationError("empty timing series")
    for p, t in times_by_p.items():
        if p < 1 or not t > 0.0:
            raise ConfigurationError(f"bad timing entry p={p}, t={t}")
    if not t_base > 0.0:
        raise ConfigurationError("baseline runtime must be positive")
    return {p: t_base / t for p, t in sorted(times_by_p.items())}


def efficiency(speedups, base_p):
    """E(p) = S(p) / (p / base_p), normalised to the smallest measured p."""
    if base_p not in speedups:
        raise ConfigurationError(f"base task count {base_p} missing from series")
    return {p: s / (p / base_p) for p, s in sorted(speedups.items())}


def mean(samples):
    xs = [float(v) for v in samples]
    if not xs:
        raise ValueError("need at least one sample")
    return math.fsum(xs) / len(xs)


def stddev(samples):
    """Population standard deviation: sqrt((1/N) * sum (O_i - <O>)^2).

    Derived quantities must be computed per repetition before applying
    this, never the other way around.
    """
    xs = [float(v) for v in samples]
    mu = mean(xs)
    return math.sqrt(math.fsum((v - mu) ** 2 for v in xs) / len(xs))


@dataclass
class BenchRecord:
    """One benchmark configuration's observations across repetitions.

    halo_times_s holds the per-repetition wall time of ``iterations``
    exchange calls (start to end, with any overlapped work) on the slowest
    rank; step_times_s the barrier-to-barrier wall time of the whole timed
    loop.
    """

    strategy: str
    proc_dims: tuple
    local_dims: tuple
    m: int
    iterations: int
    halo_times_s: list
    step_times_s: list
    bytes_sent: list
    messages_sent: list

    def __post_init__(self):
        if self.repetitions < 1:
            raise ValueError("need at least one repetition")
        lengths = {
            len(self.step_times_s), len(self.bytes_sent),
            len(self.messages_sent), len(self.halo_times_s),
        }
        if lengths != {self.repetitions}:
            raise ValueError("per-repetition series have mismatched lengths")
        if any(not t > 0.0 for t in self.halo_times_s + self.step_times_s):
            raise ValueError("wall times must be positive")

    @property
    def repetitions(self):
        return len(self.halo_times_s)
