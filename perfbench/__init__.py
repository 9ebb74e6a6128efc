"""End-to-end benchmark of record for the GenPIP reproduction.

Run one workload with::

    python3 perfbench/run.py --workload ecoli-er-serial --seed 1 --seconds 35 --trace 0

``--trace 0`` times the real entry points (``python -m repro.runtime``,
``python -m repro.serving serve``) as fresh processes and prints the
end-to-end metrics; ``--trace 1`` runs the same workload in-process with
span tracing on and prints the per-layer metrics. See ``README.md`` for
the workloads, the metric definitions and which layer metric should
move which end-to-end metric.
"""
