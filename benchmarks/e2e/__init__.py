"""The repo benchmark: four workloads, five end-to-end metrics, a traced run.

``python -m benchmarks.e2e`` (or the command in the root ``BENCHMARK.json``)
drives :mod:`repro` through its public entry points only and referees every
speed claim made on it.  See ``README.md`` in this directory for the workload
table, the metric definitions and bounds, and how to read the trace.

Modules
-------
* :mod:`~benchmarks.e2e.estimators` — segmenting, pooled quartiles, due-time
  latency (the fix for run-to-run noise on a shared host);
* :mod:`~benchmarks.e2e.loadgen` — seeded schedules/traffic and the
  generator + FIFO-collector load loops (nothing from ``src/`` generates load);
* :mod:`~benchmarks.e2e.workloads` — the four workloads, one fresh subprocess
  per round;
* :mod:`~benchmarks.e2e.trace` — the outside-in span recorder of the traced run;
* :mod:`~benchmarks.e2e.report` — raw rounds -> headline metrics;
* :mod:`~benchmarks.e2e.agree` — do two result sets of one commit agree?
"""
