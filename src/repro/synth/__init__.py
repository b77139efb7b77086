"""Synthetic world, mappers, edit simulator, and query workloads."""
