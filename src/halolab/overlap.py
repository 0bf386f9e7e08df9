"""Halo-independent work scheduled between non-blocking start and end."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .halo import STRATEGIES


@dataclass(frozen=True)
class OverlapWorkload:
    """Synthetic compute kernel touching interior sites only.

    ``intensity`` is the number of multiply-add passes over the interior;
    the result is deterministic for a given field and intensity.
    """

    intensity: int

    def __post_init__(self):
        if self.intensity < 0:
            raise ValueError("intensity must be non-negative")


_CACHE_LINE = 64


def _aligned_empty(shape):
    """Uninitialised float64 array whose data starts on a cache-line boundary.

    numpy's allocations are only 16-byte aligned, and where the scratch
    array of the pass loop lands decides its speed: vector loads that
    straddle cache lines made the loop ~20 % slower, at random from one
    process to the next.
    """
    n = int(np.prod(shape))
    raw = np.empty(n + _CACHE_LINE // 8, dtype=np.float64)
    start = (-raw.ctypes.data % _CACHE_LINE) // 8
    return raw[start:start + n].reshape(shape)


def synthetic_workload(field, intensity):
    """Run ``intensity`` multiply-add passes per interior site; return a checksum.

    Reads only the interior, writes nothing back to the field, so it is
    safe to run while halo messages are in flight.
    """
    if intensity < 0:
        raise ValueError("intensity must be non-negative")
    acc = _aligned_empty(field.interior().shape[:-1])
    acc[...] = field.interior()[..., 0]
    for _ in range(int(intensity)):
        np.multiply(acc, 0.999993, out=acc)
        np.add(acc, 1.25e-7, out=acc)
    return float(acc.sum())


def step_with_overlap(field, topo, buffers, workload):
    """Non-blocking start -> workload -> end; returns the workload checksum.

    The halo state afterwards is identical to running start -> end and the
    workload afterwards.
    """
    start, end = STRATEGIES["nonblocking"]
    token = start(field, topo, buffers)
    checksum = synthetic_workload(field, workload.intensity)
    end(token, field, buffers)
    return checksum
