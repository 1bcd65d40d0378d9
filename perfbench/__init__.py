"""Benchmark of the monitoring and ingest paths; see README.md."""
