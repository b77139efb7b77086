"""A re-export shim for code outside the tree: a root, must pass."""

from unreachedpkg.core.temporal import DAYS  # noqa: F401
