"""dpplab benchmark: workloads, tracing and layer probes (see README.md)."""
