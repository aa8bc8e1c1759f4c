"""Benchmark harness: the paper's §5 tables and figures as rows of
:data:`.experiments.EXPERIMENTS`, each run by :func:`.experiments.run`."""
