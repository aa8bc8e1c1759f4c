"""The repo benchmark: four figure-point workloads measured from outside.

Run ``python3 bench/run.py`` from the repository root; see
``bench/README.md`` for the metrics, workloads and predictions.
"""
