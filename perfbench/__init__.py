"""The repository benchmark: three workloads against one server process.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` runs one workload end to end and prints one JSON result
line last.  See ``perfbench/spec.json`` for what each workload and
metric means, and ``BENCHMARK.json`` at the repository root for the
metrics the result line carries.
"""
