"""Runtime lock-order witness: the dynamic half of the concurrency check.

While installed, every ``threading.Lock`` / ``RLock`` / ``Condition``
created by *project* code (scope-filtered by the creation site's file
path) is wrapped in a recording proxy.  Each thread keeps its own
held-lock stack; acquiring lock B while holding lock A records the
directed edge A → B in a process-wide acquisition-order graph.  Locks
are keyed by **creation site** (``file:line`` of the factory call) —
the same key the static analyzer derives for ``self._lock =
threading.Lock()`` sites — so the witnessed graph joins against the
static one with no registry shared between the two.

An **inversion** (B → A witnessed when A → B already exists) is a
real interleaving one scheduler decision away from deadlock; the
stress suite fails on it immediately.  The full witnessed graph is
exported as a JSON artifact that ``python -m repro.tools.conc
--witness`` cross-checks: a witnessed edge contradicting the static
order fails, and a witnessed edge the static call graph never found is
reported as a blind spot.

Usage (the stress suite does this through a fixture)::

    with LockWitness(scope_paths=[Path("src/repro")]) as witness:
        ...  # run threaded workload
    assert not witness.inversions
    witness.write_artifact(Path("lock-witness.json"))

The proxies add two dict lookups and a couple of list operations per
acquisition — cheap enough for the stress tier, not meant for
production wiring (which never imports :mod:`repro.testing`).
"""

from __future__ import annotations

import _thread
import json
import threading
from dataclasses import dataclass, field
from pathlib import Path
from types import TracebackType
from typing import Iterable

__all__ = ["LockWitness", "WitnessedInversion", "ARTIFACT_VERSION"]

ARTIFACT_VERSION = 1


@dataclass(frozen=True)
class WitnessedInversion:
    """Lock ``b`` was acquired while holding ``a`` after the opposite
    order had already been witnessed."""

    a: str  # creation-site key of the lock held first in the OLD order
    b: str
    thread: str

    def describe(self) -> str:
        return (
            f"thread {self.thread} acquired {self.a} while holding "
            f"{self.b}, but the opposite order was witnessed earlier"
        )


@dataclass
class _SiteInfo:
    path: str
    line: int
    kind: str


class _WitnessState:
    """Process-wide recording state shared by every proxy."""

    def __init__(self) -> None:
        # A real (unwitnessed) lock guards the shared graphs; allocate
        # it via _thread so the patched factories can never wrap it.
        self.guard = _thread.allocate_lock()
        self.sites: dict[str, _SiteInfo] = {}
        #: (held site, acquired site) -> times witnessed.
        self.edges: dict[tuple[str, str], int] = {}
        self.inversions: list[WitnessedInversion] = []
        self._held = threading.local()

    def held_stack(self) -> list[str]:
        stack = getattr(self._held, "stack", None)
        if stack is None:
            stack = []
            self._held.stack = stack
        return stack

    def record_acquire(self, site: str) -> None:
        stack = self.held_stack()
        if stack:
            # Edge from EVERY held lock, not just the innermost: with
            # stack [A, B] an acquisition of C witnesses both A -> C
            # and B -> C, matching how the static simulator records
            # its held-set edges.
            with self.guard:
                for holder in stack:
                    if holder == site:
                        continue
                    count = self.edges.get((holder, site), 0)
                    self.edges[(holder, site)] = count + 1
                    if count == 0 and (site, holder) in self.edges:
                        self.inversions.append(
                            WitnessedInversion(
                                a=site,
                                b=holder,
                                thread=threading.current_thread().name,
                            )
                        )
        stack.append(site)

    def record_release(self, site: str) -> None:
        stack = self.held_stack()
        # Release order need not mirror acquisition order; remove the
        # most recent matching entry.
        for position in range(len(stack) - 1, -1, -1):
            if stack[position] == site:
                del stack[position]
                return


class _WitnessedLock:
    """Records acquisition order around a real primitive.

    RLock re-entries are depth-counted and only the outermost
    acquisition records an edge (a re-entry cannot introduce one).
    """

    def __init__(
        self, raw, site: str, state: _WitnessState, reentrant: bool
    ) -> None:
        self._raw = raw
        self._site = site
        self._state = state
        self._reentrant = reentrant
        self._depth = threading.local()

    # -- depth bookkeeping (reentrant locks only) ---------------------------

    def _enter(self) -> None:
        if self._reentrant:
            depth = getattr(self._depth, "value", 0)
            self._depth.value = depth + 1
            if depth > 0:
                return
        self._state.record_acquire(self._site)

    def _exit(self) -> None:
        if self._reentrant:
            depth = getattr(self._depth, "value", 0)
            self._depth.value = max(0, depth - 1)
            if depth > 1:
                return
        self._state.record_release(self._site)

    # -- the lock protocol --------------------------------------------------

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        got = self._raw.acquire(blocking, timeout)
        if got:
            self._enter()
        return got

    def release(self) -> None:
        self._raw.release()
        self._exit()

    def locked(self) -> bool:
        return self._raw.locked()

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        self.release()

    # Condition(lock=...) integration: threading.Condition drives its
    # backing lock through these three hooks.  Because this proxy
    # always *defines* them, Condition never applies its own plain-lock
    # fallbacks — so each hook must fall back itself when the raw
    # primitive (a non-reentrant lock) lacks the RLock protocol.
    def _release_save(self):
        self._exit()
        raw_hook = getattr(self._raw, "_release_save", None)
        if raw_hook is not None:
            return raw_hook()
        self._raw.release()
        return None

    def _acquire_restore(self, state) -> None:
        raw_hook = getattr(self._raw, "_acquire_restore", None)
        if raw_hook is not None:
            raw_hook(state)
        else:
            self._raw.acquire()
        self._enter()

    def _is_owned(self) -> bool:
        raw_hook = getattr(self._raw, "_is_owned", None)
        if raw_hook is not None:
            return raw_hook()
        # threading.Condition's plain-lock protocol: owned if a
        # non-blocking acquire fails.
        if self._raw.acquire(False):
            self._raw.release()
            return False
        return True

    def __repr__(self) -> str:
        return f"<witnessed {self._raw!r} site={self._site}>"


class LockWitness:
    """Context manager that patches the ``threading`` lock factories.

    ``scope_paths`` restricts witnessing to locks *created* by files
    under the given directories; everything else (stdlib pools, logging
    internals, pytest) gets the real primitive, untouched.
    """

    def __init__(self, scope_paths: Iterable[Path] | None = None) -> None:
        self._scope = tuple(
            str(path.resolve()) for path in (scope_paths or ())
        )
        self._state = _WitnessState()
        self._installed = False
        self._saved: dict[str, object] = {}

    # -- results ------------------------------------------------------------

    @property
    def inversions(self) -> list[WitnessedInversion]:
        with self._state.guard:
            return list(self._state.inversions)

    @property
    def edges(self) -> dict[tuple[str, str], int]:
        with self._state.guard:
            return dict(self._state.edges)

    def to_json(self) -> dict[str, object]:
        with self._state.guard:
            return {
                "version": ARTIFACT_VERSION,
                "locks": {
                    key: {"path": info.path, "line": info.line, "kind": info.kind}
                    for key, info in sorted(self._state.sites.items())
                },
                "edges": [
                    {"from": held, "to": acquired, "count": count}
                    for (held, acquired), count in sorted(self._state.edges.items())
                ],
                "inversions": [
                    {"a": inv.a, "b": inv.b, "thread": inv.thread}
                    for inv in self._state.inversions
                ],
            }

    def write_artifact(self, path: Path) -> None:
        path.write_text(
            json.dumps(self.to_json(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )

    # -- installation -------------------------------------------------------

    def _creation_site(self) -> tuple[str, int] | None:
        """(path, line) of the project frame creating a lock, if any."""
        import sys

        frame = sys._getframe(1)
        while frame is not None:
            filename = frame.f_code.co_filename
            if filename != __file__ and filename != threading.__file__:
                if not self._scope or any(
                    filename.startswith(prefix) for prefix in self._scope
                ):
                    return filename, frame.f_lineno
                return None
            frame = frame.f_back
        return None

    def _register(self, path: str, line: int, kind: str) -> str:
        key = f"{path}:{line}"
        with self._state.guard:
            self._state.sites.setdefault(key, _SiteInfo(path, line, kind))
        return key

    def _make_lock(self):
        site = self._creation_site()
        raw = self._saved["Lock"]()  # type: ignore[operator]
        if site is None:
            return raw
        key = self._register(site[0], site[1], "Lock")
        return _WitnessedLock(raw, key, self._state, reentrant=False)

    def _make_rlock(self):
        site = self._creation_site()
        raw = self._saved["RLock"]()  # type: ignore[operator]
        if site is None:
            return raw
        key = self._register(site[0], site[1], "RLock")
        return _WitnessedLock(raw, key, self._state, reentrant=True)

    def _make_condition(self, lock=None):
        condition_cls = self._saved["Condition"]
        if lock is not None:
            return condition_cls(lock)  # type: ignore[operator]
        site = self._creation_site()
        if site is None:
            return condition_cls()  # type: ignore[operator]
        key = self._register(site[0], site[1], "Condition")
        raw = self._saved["RLock"]()  # type: ignore[operator]
        witnessed = _WitnessedLock(raw, key, self._state, reentrant=True)
        return condition_cls(witnessed)  # type: ignore[operator]

    def install(self) -> "LockWitness":
        if self._installed:
            return self
        self._saved = {
            "Lock": threading.Lock,
            "RLock": threading.RLock,
            "Condition": threading.Condition,
        }
        threading.Lock = self._make_lock  # type: ignore[misc, assignment]
        threading.RLock = self._make_rlock  # type: ignore[misc, assignment]
        threading.Condition = self._make_condition  # type: ignore[misc, assignment]
        self._installed = True
        return self

    def uninstall(self) -> None:
        if not self._installed:
            return
        threading.Lock = self._saved["Lock"]  # type: ignore[misc, assignment]
        threading.RLock = self._saved["RLock"]  # type: ignore[misc, assignment]
        threading.Condition = self._saved["Condition"]  # type: ignore[misc, assignment]
        self._installed = False

    def __enter__(self) -> "LockWitness":
        return self.install()

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        self.uninstall()
