"""Result serialisation: raw rows, mean/sigma summaries, plot-ready files.

Floats are written with repr precision so every derived column can be
recomputed bit-exactly from the raw columns by the verify subcommand.
Derived quantities are always computed per repetition first and only then
fed to the standard deviation.
"""

from __future__ import annotations

import csv
import json
import os
import platform
from pathlib import Path

import numpy as np

from .metrics import (
    effective_bandwidth,
    efficiency,
    halo_sites,
    mean,
    speedup,
    stddev,
    updates_per_core,
)

# raw.csv's columns, in order, each with the type it reads back as
RAW_COLUMNS = {
    "strategy": str, "Px": int, "Py": int, "Pz": int, "Lx": int, "Ly": int, "Lz": int,
    "m": int, "rep": int, "iterations": int, "t_halo_total_s": float,
    "t_step_total_s": float, "bytes_sent": int, "messages_sent": int, "waits": int,
    "B_eff_MBps": float, "updates_per_core": float,
}

SUMMARY_COLUMNS = [
    "strategy", "Px", "Py", "Pz", "Lx", "Ly", "Lz", "m", "iterations", "repetitions",
    "t_halo_mean_s", "t_halo_sigma_s", "t_step_mean_s", "t_step_sigma_s",
    "B_eff_mean_MBps", "B_eff_sigma_MBps", "updates_mean", "updates_sigma",
]


def _derived(local_dims, m, iterations, t_halo_total):
    t_exchange = t_halo_total / iterations
    return (
        effective_bandwidth(local_dims, m, t_exchange),
        updates_per_core(local_dims, t_exchange),
    )


def result_rows(record):
    """Flatten a BenchRecord into one dict per repetition."""
    px, py, pz = record.proc_dims
    lx, ly, lz = record.local_dims
    rows = []
    for rep in range(record.repetitions):
        beff, updates = _derived(
            record.local_dims, record.m, record.iterations, record.halo_times_s[rep]
        )
        rows.append({
            "strategy": record.strategy,
            "Px": px, "Py": py, "Pz": pz,
            "Lx": lx, "Ly": ly, "Lz": lz,
            "m": record.m,
            "rep": rep,
            "iterations": record.iterations,
            "t_halo_total_s": record.halo_times_s[rep],
            "t_step_total_s": record.step_times_s[rep],
            "bytes_sent": record.bytes_sent[rep],
            "messages_sent": record.messages_sent[rep],
            "waits": record.waits[rep],
            "B_eff_MBps": beff,
            "updates_per_core": updates,
        })
    return rows


def write_csv(rows, path, columns):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns)
        writer.writeheader()
        for row in rows:
            writer.writerow({k: repr(v) if isinstance(v, float) else v for k, v in row.items()})
    return path


def read_raw_csv(path):
    with open(path, newline="") as fh:
        return [{key: parse(row[key]) for key, parse in RAW_COLUMNS.items()}
                for row in csv.DictReader(fh)]


def _group_key(row):
    return (row["strategy"], row["Px"], row["Py"], row["Pz"],
            row["Lx"], row["Ly"], row["Lz"], row["m"], row["iterations"])


def summarize(rows):
    """Group repetitions and report mean and population sigma per quantity."""
    groups = {}
    for row in rows:
        groups.setdefault(_group_key(row), []).append(row)
    out = []
    for key in sorted(groups, key=str):
        strategy, px, py, pz, lx, ly, lz, m, iterations = key
        members = groups[key]
        halo = [r["t_halo_total_s"] for r in members]
        step = [r["t_step_total_s"] for r in members]
        beff = [r["B_eff_MBps"] for r in members]
        updates = [r["updates_per_core"] for r in members]
        out.append({
            "strategy": strategy,
            "Px": px, "Py": py, "Pz": pz, "Lx": lx, "Ly": ly, "Lz": lz,
            "m": m, "iterations": iterations, "repetitions": len(members),
            "t_halo_mean_s": mean(halo), "t_halo_sigma_s": stddev(halo),
            "t_step_mean_s": mean(step), "t_step_sigma_s": stddev(step),
            "B_eff_mean_MBps": mean(beff), "B_eff_sigma_MBps": stddev(beff),
            "updates_mean": mean(updates), "updates_sigma": stddev(updates),
        })
    return out


def write_xy(path, pairs, header):
    """Two-column text file: a '# header' line, then one 'x y' line per pair."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        fh.write(f"# {header}\n")
        for x, y in pairs:
            fh.write(f"{x!r} {y!r}\n")
    return path


def emit_summary(rows, outdir, meta, mode="subdomain"):
    """Write raw.csv, summary.csv, meta.json and the plot-ready two-column files.

    mode 'subdomain': effective bandwidth vs message MBytes and update rate
    vs interior sites, per strategy.  mode 'scaling': runtime, speedup and
    efficiency vs task count per strategy (speedup and efficiency in
    common-baseline form) plus the nonblocking-minus-blocking runtime
    difference.
    """
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    summary = summarize(rows)
    paths = {
        "raw": write_csv(rows, outdir / "raw.csv", RAW_COLUMNS),
        "summary": write_csv(summary, outdir / "summary.csv", SUMMARY_COLUMNS),
        "meta": write_meta(meta, outdir / "meta.json"),
    }
    strategies = sorted({s["strategy"] for s in summary})
    if mode == "subdomain":
        for strategy in strategies:
            series = [s for s in summary if s["strategy"] == strategy]
            msg = sorted(
                (halo_sites((s["Lx"], s["Ly"], s["Lz"])) * 8 * s["m"] / 1e6,
                 s["B_eff_mean_MBps"])
                for s in series
            )
            sites = sorted(
                (s["Lx"] * s["Ly"] * s["Lz"], s["updates_mean"]) for s in series
            )
            paths[f"beff_{strategy}"] = write_xy(
                outdir / f"beff_vs_msgMB_{strategy}.dat", msg,
                "message_MBytes  B_eff_MBps")
            paths[f"updates_{strategy}"] = write_xy(
                outdir / f"updates_vs_sites_{strategy}.dat", sites,
                "interior_sites  updates_per_core")
    elif mode == "scaling":
        times = {}
        for s in summary:
            p = s["Px"] * s["Py"] * s["Pz"]
            times.setdefault(s["strategy"], {})[p] = s["t_halo_mean_s"]
        base_strategy = "blocking" if "blocking" in times else strategies[0]
        base_series = times[base_strategy]
        base_p = min(base_series)
        t_base = base_series[base_p]
        for strategy, series in times.items():
            runtime = sorted(series.items())
            s_common = speedup(series, t_base)
            e_common = efficiency(s_common, base_p=min(series))
            paths[f"runtime_{strategy}"] = write_xy(
                outdir / f"runtime_vs_p_{strategy}.dat", runtime,
                "tasks  t_halo_mean_s")
            paths[f"speedup_{strategy}"] = write_xy(
                outdir / f"speedup_vs_p_{strategy}.dat", sorted(s_common.items()),
                "tasks  speedup_common_T1")
            paths[f"efficiency_{strategy}"] = write_xy(
                outdir / f"efficiency_vs_p_{strategy}.dat", sorted(e_common.items()),
                "tasks  efficiency")
        if "blocking" in times and "nonblocking" in times:
            shared = sorted(set(times["blocking"]) & set(times["nonblocking"]))
            diff = [(p, times["nonblocking"][p] - times["blocking"][p]) for p in shared]
            paths["runtime_diff"] = write_xy(
                outdir / "runtime_diff_vs_p.dat", diff,
                "tasks  t_nonblocking_minus_blocking_s")
    else:
        raise ValueError(f"unknown emit mode {mode!r}")
    return paths


def write_meta(meta, path):
    """Write ``meta`` as JSON, with the identity of the host that ran it."""
    host = {"python": platform.python_version(), "numpy": np.__version__,
            "nproc": len(os.sched_getaffinity(0)), "platform": platform.platform()}
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(dict(meta, host=host), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def verify_raw_csv(path):
    """Recompute the derived columns of a raw file; list any mismatches.

    The recomputation must agree bit-for-bit with the stored values, which
    holds because floats round-trip through repr.
    """
    problems = []
    for row in read_raw_csv(path):
        local = (row["Lx"], row["Ly"], row["Lz"])
        beff, updates = _derived(local, row["m"], row["iterations"], row["t_halo_total_s"])
        where = f"strategy={row['strategy']} L={local} rep={row['rep']}"
        if beff != row["B_eff_MBps"]:
            problems.append(f"{where}: B_eff_MBps stored {row['B_eff_MBps']!r} != recomputed {beff!r}")
        if updates != row["updates_per_core"]:
            problems.append(f"{where}: updates_per_core stored {row['updates_per_core']!r} != recomputed {updates!r}")
    return problems
