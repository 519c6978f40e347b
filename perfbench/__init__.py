"""The repository benchmark: three workloads, end-to-end and per-layer metrics.

Run ``python3 perfbench/run.py --workload NAME`` from the repository root;
see ``perfbench/README.md`` for the metrics, workloads and layer table.
"""
