"""Repeat the benchmark and report each end-to-end metric's run-to-run spread.

    python3 halobench/repeat.py

Runs ``run.py`` for two sets of ten runs of every workload in
``BENCHMARK.json``, each run ``run_seconds`` long and with its own seed,
interleaving the sets run by run so that both see the same host.  Raw
results go to ``halobench/out/repeat.jsonl``.  For every metric it prints
each set's median and quartiles, the spread (q3 - q1) / median against the
metric's bound, and the shift of set 1's median from set 0's.  It exits
with 1 if any spread or shift exceeds its bound.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT))

from halobench.stats import quartile_spread  # noqa: E402

RUNS = 10
SETS = 2


def run_once(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=180,
    )
    row = json.loads(out.stdout.strip().splitlines()[-1])
    # run.py reports the host's speed on standard error, outside the metrics
    for line in out.stderr.splitlines():
        if line.strip().startswith("host.ref_us median"):
            row["host_ref_us"] = float(line.split()[-1])
    return row


def worse_by(first, later, better):
    """Share by which ``later`` is worse than ``first`` (negative if better)."""
    return (later - first) / first if better == "lower" else (first - later) / first


def report(rows, spec):
    """Print the spread table; return True if every check holds."""
    ok = True
    for workload in dict.fromkeys(r["workload"] for r in rows):
        print(f"\n{workload}")
        shares = {(r["set"], r["failed"] / r["attempted"]) for r in rows if r["workload"] == workload}
        print(f"  failed share per set: {sorted(shares)}")
        for m in spec["end_to_end"]:
            name = m["name"]
            medians = []
            for s in range(SETS):
                values = [r["metrics"][name]["value"] for r in rows
                          if r["workload"] == workload and r["set"] == s]
                q1, q2, q3, spread = quartile_spread(values)
                medians.append(q2)
                flag = "" if spread <= m["bound"] else "  OVER BOUND"
                ok = ok and not flag
                print(f"  set {s} {name:24s} median {q2:12.4f} q1 {q1:12.4f} q3 {q3:12.4f} "
                      f"spread {spread:6.3f} (bound {m['bound']}, {spread / m['bound']:.2f}){flag}")
            for s, q2 in enumerate(medians[1:], start=1):
                shift = worse_by(medians[0], q2, m["better"])
                flag = "  OVER BOUND" if shift > m["bound"] else ""
                ok = ok and not flag
                print(f"  set {s} {name:24s} worse than set 0 by {shift:+.3f}{flag}")
    return ok


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = HERE / "out" / "repeat.jsonl"
    out.parent.mkdir(exist_ok=True)
    rows = []
    with open(out, "w") as fh:
        for run in range(RUNS):
            for s in range(SETS):
                for w in spec["workloads"]:
                    seed = 1000 * (s + 1) + run
                    row = {"set": s, "workload": w["name"], "seed": seed,
                           **run_once(w["name"], seed, spec["run_seconds"])}
                    rows.append(row)
                    fh.write(json.dumps(row) + "\n")
                    fh.flush()
                    print(f"set {s} run {run} {w['name']} seed {seed} done", file=sys.stderr)
    return 0 if report(rows, spec) else 1


if __name__ == "__main__":
    sys.exit(main())
