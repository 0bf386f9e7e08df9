"""Benchmark for halolab: end-to-end step times and a traced per-layer split.

Run ``python3 halobench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` from the repository root; see ``halobench/README.md``.
"""
