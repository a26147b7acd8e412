"""End-to-end, layer-attributed benchmark ``e2e`` (see README.md).

Run ``PYTHONPATH=src python -m benchmarks.e2e --seed 1`` from the repo
root, or ``python3 benchmarks/e2e/run.py --workload NAME --seed N
--seconds S --trace 0|1`` for one workload.
"""
