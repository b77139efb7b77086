"""RASED's core: cubes, the temporal hierarchy, cache, optimizer, executor."""
