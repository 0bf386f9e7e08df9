"""Helpers shared by the tests: halo-shell comparison and sweep reports."""


def halo_shell(field):
    """Copy of the field data with the interior zeroed, for shell comparisons."""
    out = field.data.copy()
    out[1:-1, 1:-1, 1:-1, :] = 0.0
    return out


def describe_sweep(samples, level, plateau):
    """Every sample of a ping-pong sweep, its level and where its plateau
    starts, for the message of a failing check."""
    lines = [f"{s.message_bytes:>9d} B {s.round_trips:>4d} trips {s.elapsed_s * 1e3:9.3f} ms "
             f"{s.bandwidth_MBps:10.1f} MB/s" for s in samples]
    lines.append(f"level {level:.1f} MB/s, plateau from {plateau.message_bytes} B")
    return "\n".join(lines)
