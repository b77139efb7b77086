"""The entry point: imports the simulator package and, lazily, the query."""

from typing import TYPE_CHECKING

from unreachedpkg.synth import simulate

if TYPE_CHECKING:
    # Never runs, so it reaches nothing: typed_only.py stays unreached.
    from unreachedpkg.core.typed_only import Hint


def main(hint: "Hint | None" = None) -> int:
    from unreachedpkg.core import query

    return simulate() + query.run()
