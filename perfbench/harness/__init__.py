"""Workloads, inputs, task timing and tracing of the oscillab benchmark."""
