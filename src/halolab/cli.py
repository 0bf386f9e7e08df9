"""Command-line front end: bench, sweep, test-halo, regression, pingpong, model, verify.

Exit codes: 0 pass, 1 test failure or a failed run, 2 configuration error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict, fields, replace
from pathlib import Path

from .config import SETTINGS, apply_settings, build_config
from .errors import ConfigurationError, HaloLabError
from .halo import STRATEGIES, blocking_message_sites, nonblocking_message_sites
from .metrics import comm_work_ratio, total_cost
from .reporting import (emit_summary, result_rows, verify_raw_csv, write_csv, write_meta,
                        write_xy)
from .runner import (PingPongSample, bandwidth_sweep, detect_plateau, run_benchmark,
                     run_regression, run_test_halo)
from .transport import TransportModel

# (flag, config key): one flag per config key, spelt from its attribute
_CONFIG_FLAGS = [("--" + attr.replace("_", "-").lower(), key)
                 for key, (attr, _) in SETTINGS.items()]


def _add_config_arguments(parser):
    parser.add_argument("--config", metavar="FILE", help="flat key=value config file")
    parser.add_argument(
        "--set", action="append", default=[], metavar="KEY=VALUE",
        help="override a config key (repeatable)",
    )
    for flag, key in _CONFIG_FLAGS:
        parser.add_argument(flag, dest=f"cfg::{key}", metavar="V", default=None)


def _config_from_args(args):
    overrides = {}
    for item in args.set:
        if "=" not in item:
            raise ConfigurationError(f"--set expects KEY=VALUE, got {item!r}")
        key, value = item.split("=", 1)
        overrides[key.strip()] = value.strip()
    for name, value in vars(args).items():
        if name.startswith("cfg::") and value is not None:
            overrides[name[len("cfg::"):]] = value
    return build_config(args.config, overrides)


def _output(path, directory=True):
    """``path`` as a Path, checked before any run: the nearest part of it
    that exists must be a directory, unless it is ``path`` itself, which
    must be a file when ``directory`` is False.  Nothing is made here."""
    path = Path(path)
    existing = next(p for p in (path, *path.parents) if p.exists())
    if existing.is_dir() != (directory or existing != path):
        raise ConfigurationError(f"cannot write output to {path}: {existing} "
                                 f"{'is' if existing.is_dir() else 'is not'} a directory")
    return path


def _cmd_bench(args):
    cfg = _config_from_args(args)
    outdir = _output(cfg.output or "bench_out")
    record, meta = run_benchmark(cfg)
    rows = result_rows(record)
    paths = emit_summary(rows, outdir, meta)
    for row in rows:
        print(
            f"{row['strategy']} P=({row['Px']},{row['Py']},{row['Pz']}) "
            f"L=({row['Lx']},{row['Ly']},{row['Lz']}) rep={row['rep']}: "
            f"t_halo={row['t_halo_total_s']:.6f}s "
            f"B_eff={row['B_eff_MBps']:.3f} MB/s "
            f"updates={row['updates_per_core']:.3e}/s"
        )
    print(f"wrote {', '.join(str(p) for p in paths.values())}")
    return 0


# swept config key -> (emit_summary mode, or None for overlap.csv; run label -> RunConfig fields)
_STRATEGY_RUNS = {s: {"strategy": s, "overlap_enabled": False} for s in STRATEGIES}
_SWEEPS = {
    "local_dims": ("subdomain", _STRATEGY_RUNS),
    "proc_dims": ("scaling", _STRATEGY_RUNS),
    "overlap.intensity": (None, {
        **_STRATEGY_RUNS, "overlapped": {"strategy": "nonblocking", "overlap_enabled": True}}),
}


def _cmd_sweep(args):
    base = _config_from_args(args)
    outdir = _output(base.output or "sweep_out")
    mode, runs = _SWEEPS[args.key]
    points = [apply_settings(replace(base), {args.key: value}) for value in args.values]
    # every run is checked before the first one starts
    plans = [[(label, replace(point, **fields).validate()) for label, fields in runs.items()]
             for point in points]
    rows, metas, overlap_rows = [], [], []
    for value, plan in zip(args.values, plans):
        times = {}
        for label, cfg in plan:
            record, meta = run_benchmark(cfg)
            rows.extend(result_rows(record))
            metas.append(meta)
            times[f"t_{label}_s"] = min(record.step_times_s) / cfg.iterations
            print(f"{args.key}={value} {label}: t_halo={min(record.halo_times_s):.6f}s"
                  + ("  [oversubscribed]" if meta["oversubscribed"] else ""))
        overlap_rows.append({"intensity": cfg.overlap_intensity, **times})
    attr = SETTINGS[args.key][0]
    # the kernel threads follow each point's dims and ranks: one entry per point
    meta = dict(metas[0], oversubscribed=any(m["oversubscribed"] for m in metas),
                kernel_threads=[m["kernel_threads"] for m in metas[::len(runs)]],
                sweep={"key": args.key, "values": [getattr(p, attr) for p in points]})
    del meta["strategy"]  # each row names its own
    if mode is None:
        del meta["overlap"]["enabled"]  # so does each overlap.csv column
        paths = {"overlap": write_csv(overlap_rows, outdir / "overlap.csv", list(overlap_rows[0])),
                 "meta": write_meta(meta, outdir / "meta.json")}
    else:
        paths = emit_summary(rows, outdir, meta, mode=mode)
    print(f"wrote {', '.join(str(p) for p in paths.values())}")
    return 0


def _cmd_test_halo(args):
    report = run_test_halo(_config_from_args(args))
    print(report.describe())
    return 0 if report.passed else 1


def _cmd_regression(args):
    report = run_regression(_config_from_args(args), steps=args.steps)
    print(report.describe())
    return 0 if report.passed else 1


def _cmd_pingpong(args):
    sizes = None
    if args.sizes:
        try:
            sizes = [int(s) for s in args.sizes.split(",")]
        except ValueError:
            raise ConfigurationError(f"--sizes expects byte counts, got {args.sizes!r}") from None
        if min(sizes) < 8:
            raise ConfigurationError(f"message sizes must be at least 8 bytes, got {min(sizes)}")
    out = _output(args.output or "pingpong.csv", directory=False)
    samples = bandwidth_sweep(sizes)
    write_csv([asdict(s) for s in samples], out, [f.name for f in fields(PingPongSample)])
    plateau = detect_plateau(samples)
    peak = max(s.bandwidth_MBps for s in samples)
    for s in samples:
        print(f"{s.message_bytes:>9d} B  {s.bandwidth_MBps:12.1f} MB/s  ({s.round_trips} round trips)")
    print(
        f"plateau from {plateau.message_bytes} B "
        f"({plateau.bandwidth_MBps:.1f} MB/s; peak {peak:.1f} MB/s); wrote {out}"
    )
    return 0


def _cmd_model(args):
    if min(args.L) < 1:
        raise ConfigurationError(f"L must be at least 1, got {min(args.L)}")
    if not 1 <= args.m <= 27:
        raise ConfigurationError(f"m={args.m} outside the supported 1..27 range")
    try:
        params = TransportModel(args.latency_us * 1e-6, args.bandwidth_mbps)
    except ValueError as exc:
        raise ConfigurationError(f"bad transport model: {exc}") from None
    outdir = _output(args.output or "model_out")
    outdir.mkdir(parents=True, exist_ok=True)
    m = args.m
    cost_rows = []
    for L in args.L:
        dims = (L, L, L)
        blocking = [s * 8 * m for s in blocking_message_sites(dims)]
        nonblocking = [s * 8 * m for s in nonblocking_message_sites(dims)]
        cost_rows.append({
            "L": L,
            "halo_bytes": sum(nonblocking),
            "t_blocking_6msg_s": total_cost(params, blocking),
            "t_nonblocking_26msg_s": total_cost(params, nonblocking),
            "latency_gap_s": 20 * params.latency_s,
        })
    write_csv(cost_rows, outdir / "cost_vs_L.csv",
              ["L", "halo_bytes", "t_blocking_6msg_s", "t_nonblocking_26msg_s", "latency_gap_s"])
    write_xy(outdir / "ratio_cubic.dat",
             [(L, comm_work_ratio((L, L, L))) for L in range(1, 65)], "L  comm_work_ratio")
    write_xy(outdir / "ratio_noncubic.dat",
             [(x, comm_work_ratio((x, 3 * x // 2, 2 * x))) for x in range(2, 58, 2)],
             "x  comm_work_ratio(x, 1.5x, 2x)")
    print(f"wrote analytic sweeps to {outdir}")
    return 0


def _cmd_verify(args):
    try:
        problems = verify_raw_csv(args.input)
    except OSError as exc:
        raise ConfigurationError(f"cannot read {args.input}: {exc.strerror}") from None
    if problems:
        for p in problems:
            print(p)
        print(f"verify FAILED: {len(problems)} problem(s) in {args.input}")
        return 1
    print(f"verify passed: every derived column of {args.input} recomputes bit-exactly")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="halolab",
        description="halo-exchange laboratory: protocols, tests and benchmarks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bench", help="run the configured benchmark and emit CSV")
    _add_config_arguments(p)
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("sweep", help="run the benchmark over values of one config key")
    _add_config_arguments(p)
    p.add_argument("key", choices=tuple(_SWEEPS), help="the swept config key")
    p.add_argument("values", nargs="+", metavar="VALUE", help="one value per sweep point")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("test-halo", help="halo exchange correctness test, both strategies")
    _add_config_arguments(p)
    p.set_defaults(func=_cmd_test_halo)

    p = sub.add_parser("regression", help="full-physics agreement of both strategies")
    _add_config_arguments(p)
    p.add_argument("--steps", type=int, default=10)
    p.set_defaults(func=_cmd_regression)

    p = sub.add_parser("pingpong", help="two-rank bandwidth sweep on this host")
    p.add_argument("--sizes", help="comma-separated message sizes in bytes")
    p.add_argument("--output", help="CSV path (default pingpong.csv)")
    p.set_defaults(func=_cmd_pingpong)

    p = sub.add_parser("model", help="analytic cost-model and ratio sweeps")
    p.add_argument("--latency-us", type=float, default=1.0)
    p.add_argument("--bandwidth-mbps", type=float, default=350.0)
    p.add_argument("--m", type=int, default=19)
    p.add_argument("--L", type=int, nargs="+", default=[8, 16, 24, 32, 48, 64])
    p.add_argument("--output", help="output directory (default model_out)")
    p.set_defaults(func=_cmd_model)

    p = sub.add_parser("verify", help="recompute derived columns of a raw CSV")
    p.add_argument("--input", required=True)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except HaloLabError as exc:
        # a run that failed (physics, transport, usage): named, not a traceback
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
