"""End-to-end and per-layer benchmark of the cpdilate CLI commands.

Run it with ``python3 bench/run.py --workload <name> --seed <n>``; see
``bench/README.md`` for the workloads, the metrics and what each layer
metric should move.
"""
