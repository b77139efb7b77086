"""Configuration and shared data model for the concurrency analyzer."""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = [
    "ConcConfig",
    "LockId",
    "LockEdge",
    "BLOCKING_ATTR_CALLS",
    "BLOCKING_MODULE_CALLS",
]

#: ``<module>.<func>(...)`` calls that block the calling thread.  Keys
#: are (dotted module, function name); the module part is resolved
#: through the file's imports, so aliasing doesn't evade the rule.
BLOCKING_MODULE_CALLS: frozenset[tuple[str, str]] = frozenset(
    {
        ("time", "sleep"),
        ("socket", "create_connection"),
        ("select", "select"),
        ("subprocess", "run"),
        ("subprocess", "check_output"),
        ("subprocess", "check_call"),
    }
)

#: ``<expr>.<name>(...)`` attribute calls treated as blocking when the
#: receiver cannot be resolved to a project class that defines the
#: method itself.  ``wait`` on the lock being *held* is exempt (a
#: ``Condition.wait`` releases its own lock while waiting).
BLOCKING_ATTR_CALLS: frozenset[str] = frozenset(
    {
        "result",       # concurrent.futures.Future.result
        "wait",         # Event.wait / Condition.wait
        "recv",
        "accept",
        "connect",
        "sendall",
        "read_text",    # pathlib disk I/O
        "read_bytes",
        "write_text",
        "write_bytes",
    }
)


@dataclass(frozen=True)
class ConcConfig:
    """What to analyze and which escape hatches apply."""

    top_package: str = "repro"
    #: Call-graph recursion bound when propagating held-lock sets.
    max_call_depth: int = 20
    #: Calls whose *result* counts as captured ambient context when it
    #: flows into an ``Executor.submit`` / ``Thread`` argument list.
    span_capture_names: frozenset[str] = frozenset({"current_span", "copy_context"})
    deadline_capture_names: frozenset[str] = frozenset(
        {"current_deadline", "copy_context"}
    )
    #: Functions that re-attach ambient context *inside* a submitted
    #: target (the other legal hand-off shape), per context kind.
    span_attach_names: frozenset[str] = frozenset({"set_ambient"})
    deadline_attach_names: frozenset[str] = frozenset({"deadline_scope"})
    blocking_module_calls: frozenset[tuple[str, str]] = BLOCKING_MODULE_CALLS
    blocking_attr_calls: frozenset[str] = BLOCKING_ATTR_CALLS


@dataclass(frozen=True)
class LockId:
    """One statically identified lock.

    Per-instance locks are conflated per declaring class (standard for
    static lock-order analysis): ``CacheManager._lock`` names the lock
    attribute, not one instance's lock.  ``path``/``line`` point at the
    creation site (``self._lock = threading.Lock()``), which is also
    how the runtime witness keys locks — the cross-check joins on it.
    """

    qualname: str  # "repro.core.cache.CacheManager._lock" or "repro.x._LOCK"
    kind: str      # "Lock" | "RLock" | "Condition"
    path: str      # rel_path of the creation site
    line: int

    @property
    def short(self) -> str:
        parts = self.qualname.rsplit(".", 2)
        return ".".join(parts[-2:]) if len(parts) >= 2 else self.qualname

    @property
    def site_key(self) -> str:
        return f"{self.path}:{self.line}"


@dataclass
class LockEdge:
    """``held`` was held while ``acquired`` was acquired.

    ``trail`` is the acquisition path: human-readable hops from the
    function that already held the lock down to the ``with`` statement
    that acquired the second one, crossing call sites.
    """

    held: LockId
    acquired: LockId
    path: str = ""   # rel_path of the acquiring `with`
    line: int = 0
    trail: tuple[str, ...] = field(default_factory=tuple)

    @property
    def pair(self) -> tuple[str, str]:
        return (self.held.qualname, self.acquired.qualname)

    def describe(self) -> str:
        route = " -> ".join(self.trail) if self.trail else f"{self.path}:{self.line}"
        return (
            f"{self.held.short} held while acquiring "
            f"{self.acquired.short} ({route})"
        )
