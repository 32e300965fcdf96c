"""End-to-end serving benchmark: ``python -m repro.serve`` driven over TCP.

See ``README.md`` in this directory for the workloads, the metrics, and
how to run and compare it.
"""
