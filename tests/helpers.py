"""Helpers shared by the tests: the equilibrium and the conserved sums of a
field, halo-shell comparison, an endpoint with shuffled completions, an
endpoint that logs its calls, and sweep reports."""

import numpy as np

from halolab.errors import ZeroDensityError


def equilibrium(rho, u, vs, j=None):
    """Second-order polynomial equilibrium distribution, in moment space.

    f_i = w_i * rho * (1 + 3 e.u + 4.5 (e.u)^2 - 1.5 u.u), taken as
    ``vs.A @ Q`` with Q = [rho, j, j_a u_b] (``VelocitySet``) and j = rho*u
    unless the momentum ``j`` is given.  Broadcasts over leading axes: rho
    (...,), u and j (..., 3) -> (..., m).  Zeroth and first moments
    reproduce rho and rho*u to round-off for |u| well below 1.  A product
    of one column would go to gemv, whose sums round otherwise than gemm's,
    so Q has at least two, and any leading shape gives the same bits as
    ``collide`` and ``random_state``.
    """
    rho = np.asarray(rho, dtype=np.float64)
    u = np.asarray(u, dtype=np.float64)
    if np.any(rho <= 0.0):
        raise ZeroDensityError("equilibrium needs strictly positive density")
    lead = np.broadcast_shapes(rho.shape, u.shape[:-1])
    n = int(np.prod(lead))
    q = np.zeros((10, max(n, 2)))
    u = np.moveaxis(np.broadcast_to(u, lead + (3,)), -1, 0).reshape(3, n)
    q[0, :n] = np.broadcast_to(rho, lead).ravel()
    if j is None:
        np.multiply(q[0, :n], u, out=q[1:4, :n])
    else:
        q[1:4, :n] = np.moveaxis(np.broadcast_to(j, lead + (3,)), -1, 0).reshape(3, n)
    q[4:7, :n] = q[1:4, :n] * u
    q[7:9, :n] = q[1, :n] * u[1:3]
    q[9, :n] = q[2, :n] * u[2]
    return np.moveaxis((vs.A @ q)[:, :n].reshape((vs.m,) + lead), 0, -1)


def total_mass(field):
    """Sum of all interior distribution values."""
    return float(field.interior().sum())


def total_momentum(field, vs):
    """Global momentum vector, sum over interior sites of f_i e_i."""
    per_component = field.interior().sum(axis=(0, 1, 2))
    return per_component @ vs.e.astype(np.float64)


def halo_shell(field):
    """Copy of the field data with the interior zeroed, for shell comparisons."""
    out = field.data.copy()
    out[1:-1, 1:-1, 1:-1, :] = 0.0
    return out


class ShuffledCompletions:
    """An endpoint that forwards every call to ``inner`` except ``wait_any``,
    which picks a seeded random index of the list it is given and waits on
    that handle alone through ``inner``.  Completions thus reach the caller
    in a shuffled order on any grid.  The caller must drop each returned
    handle from its list, as the non-blocking end does: a handle returned
    twice makes the inner ``wait_any`` raise ``UsageError``."""

    def __init__(self, inner, seed):
        self.inner = inner
        self.rng = np.random.default_rng(seed)

    def wait_any(self, handles):
        i = int(self.rng.integers(len(handles)))
        self.inner.wait_any([handles[i]])
        return i

    def __getattr__(self, name):
        return getattr(self.inner, name)


class CallLog:
    """An endpoint that forwards every call to ``inner`` and appends the name
    of each post and wait to ``calls``, in call order."""

    LOGGED = ("post_recv", "post_send", "wait_all", "wait_any")

    def __init__(self, inner):
        self.inner = inner
        self.calls = []

    def __getattr__(self, name):
        call = getattr(self.inner, name)
        if name not in self.LOGGED:
            return call

        def logged(*args):
            self.calls.append(name)
            return call(*args)

        return logged


def describe_sweep(samples, level, plateau):
    """Every sample of a ping-pong sweep, its level and where its plateau
    starts, for the message of a failing check."""
    lines = [f"{s.message_bytes:>9d} B {s.round_trips:>4d} trips {s.elapsed_s * 1e3:9.3f} ms "
             f"{s.bandwidth_MBps:10.1f} MB/s" for s in samples]
    lines.append(f"level {level:.1f} MB/s, plateau from {plateau.message_bytes} B")
    return "\n".join(lines)
