"""Storage substrate: page stores, simulated disks, WAL, warehouse, indexes.

Nothing is imported here: each user imports the module it needs.
"""
