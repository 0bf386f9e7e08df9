"""Result serialisation: raw rows, mean/sigma summaries, plot-ready files.

Each column is declared once: ``RAW_COLUMNS`` (raw.csv, in order),
``_derived`` (its derived columns), ``CONFIG_COLUMNS`` and ``SUMMARISED``
(summary.csv).  The rows, summaries and verify follow from these tables,
so a new column is one entry (a derived one also computes it in ``_derived``).
Floats are written with repr precision so every derived column can be
recomputed bit-exactly from the raw columns by the verify subcommand.
Derived quantities are always computed per repetition first and only then
fed to the standard deviation.
"""

from __future__ import annotations

import csv
import json
import platform
from pathlib import Path

import numpy as np

from .metrics import (effective_bandwidth, efficiency, halo_bytes, mean, speedup, stddev,
                      updates_per_core)
from .runner import usable_cpus

# raw.csv's columns, in order, each with the type it reads back as
RAW_COLUMNS = {
    "strategy": str, "Px": int, "Py": int, "Pz": int, "Lx": int, "Ly": int, "Lz": int,
    "m": int, "rep": int, "iterations": int, "t_halo_total_s": float,
    "t_step_total_s": float, "bytes_sent": int, "messages_sent": int,
    "B_eff_MBps": float, "updates_per_core": float,
}

# the columns that name a configuration; summary.csv has one row for each
CONFIG_COLUMNS = ("strategy", "Px", "Py", "Pz", "Lx", "Ly", "Lz", "m", "iterations")

# summarised raw column -> its (mean, sigma) columns in summary.csv
SUMMARISED = {
    "t_halo_total_s": ("t_halo_mean_s", "t_halo_sigma_s"),
    "t_step_total_s": ("t_step_mean_s", "t_step_sigma_s"),
    "B_eff_MBps": ("B_eff_mean_MBps", "B_eff_sigma_MBps"),
    "updates_per_core": ("updates_mean", "updates_sigma"),
}

SUMMARY_COLUMNS = [*CONFIG_COLUMNS, "repetitions", *sum(SUMMARISED.values(), ())]

# where a verify problem was found, from the row's columns
_WHERE = "strategy={strategy} L=({Lx}, {Ly}, {Lz}) rep={rep}"


def _derived(row):
    """raw.csv's derived columns, in order, computed from a row's measured ones."""
    local = (row["Lx"], row["Ly"], row["Lz"])
    t_exchange = row["t_halo_total_s"] / row["iterations"]
    return {"B_eff_MBps": effective_bandwidth(local, row["m"], t_exchange),
            "updates_per_core": updates_per_core(local, t_exchange)}


def result_rows(record):
    """Flatten a BenchRecord into one dict per repetition, in RAW_COLUMNS order."""
    rows = []
    measured = zip(record.halo_times_s, record.step_times_s, record.bytes_sent,
                   record.messages_sent)
    for rep, values in enumerate(measured):
        row = dict(zip(RAW_COLUMNS, (record.strategy, *record.proc_dims, *record.local_dims,
                                     record.m, rep, record.iterations, *values)))
        rows.append(row | _derived(row))
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
    """raw.csv's rows, each cell parsed as its column's type; ValueError names
    a header other than RAW_COLUMNS in order, or a cell that does not parse."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        if next(reader, None) != list(RAW_COLUMNS):
            raise ValueError(f"header is not raw.csv's {','.join(RAW_COLUMNS)}")
        rows = []
        for cells in filter(None, reader):
            if len(cells) != len(RAW_COLUMNS):
                raise ValueError(f"line {reader.line_num} has {len(cells)} cells, "
                                 f"not {len(RAW_COLUMNS)}")
            rows.append({})
            for (column, parse), cell in zip(RAW_COLUMNS.items(), cells):
                try:
                    rows[-1][column] = parse(cell)
                except ValueError:
                    raise ValueError(f"line {reader.line_num}: {column} {cell!r} "
                                     f"is not {parse.__name__}") from None
        return rows


def summarize(rows):
    """Group repetitions by configuration and report each summarised
    column's mean and population sigma, in SUMMARY_COLUMNS order."""
    groups = {}
    for row in rows:
        groups.setdefault(tuple(row[c] for c in CONFIG_COLUMNS), []).append(row)
    out = []
    for key in sorted(groups):
        members = groups[key]
        values = [*key, len(members)]
        for column in SUMMARISED:
            samples = [r[column] for r in members]
            values += [mean(samples), stddev(samples)]
        out.append(dict(zip(SUMMARY_COLUMNS, values)))
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
    summary = summarize(rows)
    paths = {"raw": write_csv(rows, outdir / "raw.csv", RAW_COLUMNS),
             "summary": write_csv(summary, outdir / "summary.csv", SUMMARY_COLUMNS),
             "meta": write_meta(meta, outdir / "meta.json")}

    def plot(name, pairs, header):
        paths[name] = write_xy(outdir / f"{name}.dat", sorted(pairs), header)

    if mode == "subdomain":
        for strategy in sorted({s["strategy"] for s in summary}):
            series = [s for s in summary if s["strategy"] == strategy]
            plot(f"beff_vs_msgMB_{strategy}", [
                (halo_bytes((s["Lx"], s["Ly"], s["Lz"]), s["m"]) / 1e6, s["B_eff_mean_MBps"])
                for s in series], "message_MBytes  B_eff_MBps")
            plot(f"updates_vs_sites_{strategy}",
                 [(s["Lx"] * s["Ly"] * s["Lz"], s["updates_mean"]) for s in series],
                 "interior_sites  updates_per_core")
    elif mode == "scaling":
        times = {}
        for s in summary:
            times.setdefault(s["strategy"], {})[s["Px"] * s["Py"] * s["Pz"]] = s["t_halo_mean_s"]
        # the common baseline: the base strategy's runtime at its fewest tasks
        t_base = min(times["blocking" if "blocking" in times else min(times)].items())[1]
        for strategy, series in times.items():
            s_common = speedup(series, t_base)
            plot(f"runtime_vs_p_{strategy}", series.items(), "tasks  t_halo_mean_s")
            plot(f"speedup_vs_p_{strategy}", s_common.items(), "tasks  speedup_common_T1")
            plot(f"efficiency_vs_p_{strategy}", efficiency(s_common, base_p=min(series)).items(),
                 "tasks  efficiency")
        if "blocking" in times and "nonblocking" in times:
            shared = set(times["blocking"]) & set(times["nonblocking"])
            plot("runtime_diff_vs_p", [(p, times["nonblocking"][p] - times["blocking"][p])
                                       for p in shared], "tasks  t_nonblocking_minus_blocking_s")
    else:
        raise ValueError(f"unknown emit mode {mode!r}")
    return paths


def write_meta(meta, path):
    """Write ``meta`` as JSON, with the identity of the host that ran it."""
    host = {"python": platform.python_version(), "numpy": np.__version__,
            "nproc": usable_cpus(), "platform": platform.platform()}
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(dict(meta, host=host), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def verify_raw_csv(path):
    """Recompute the derived columns of a raw file; list any mismatches.

    The recomputation must agree bit-for-bit with the stored values, which
    holds because floats round-trip through repr.  A file that is not a
    raw.csv, or has no rows, is one problem; so is a row whose derived
    columns cannot be recomputed (zero iterations, a time that is not
    positive)."""
    try:
        rows = read_raw_csv(path)
    except (ValueError, csv.Error) as exc:
        return [f"{path}: {exc}"]
    if not rows:
        return [f"{path}: no rows"]
    problems = []
    for row in rows:
        try:
            derived = _derived(row)
        except (ValueError, ZeroDivisionError) as exc:
            problems.append(f"{_WHERE.format(**row)}: derived columns cannot be "
                            f"recomputed: {exc}")
            continue
        for column, value in derived.items():
            if value != row[column]:
                problems.append(f"{_WHERE.format(**row)}: {column} stored "
                                f"{row[column]!r} != recomputed {value!r}")
    return problems
