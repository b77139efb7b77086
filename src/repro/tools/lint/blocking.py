"""Rule ``conc-blocking``: no blocking operations while a lock is held.

A call blocks *directly* when it matches a known-blocking pattern
(``time.sleep``, ``Future.result``, ``Thread.join``, condition/event
waits, socket operations, ``open()`` / pathlib file I/O — see
:mod:`repro.tools.lint.locksim`), and *transitively* when any resolvable
call chain from it reaches a direct one.  The modeled disk is caught
transitively: ``PageStore.read`` reaches ``time.sleep`` through
``_charge_read``, so an index read under a lock is flagged without any
project-specific configuration.

Findings anchor at the call site inside the function that lexically
holds the lock — the place where the fix (move the call out of the
critical section, or drop the lock around it) would land.
"""

from __future__ import annotations

from repro.tools.lint.callgraph import ProgramIndex
from repro.tools.lint.locksim import (
    LockSimResult,
    calls_in,
    direct_blocking_reason,
    short_name,
)
from repro.tools.lint.model import Finding, Program

__all__ = ["classify_blocking", "check_blocking"]


def classify_blocking(index: ProgramIndex, sim: LockSimResult) -> dict[str, str]:
    """function key -> why it (transitively) blocks.

    Directly blocking functions seed the set; a fixpoint over the call
    graph propagates upward with a one-hop provenance chain, so the
    finding can say *how* a call reaches the blocking operation.
    """
    reasons: dict[str, str] = {}
    for func in index.functions.values():
        env = index.env_for(func)
        for call in calls_in(func.node):
            if index.resolve_call_targets(
                call, func.module, env, func.cls_key, caller=func
            ):
                continue  # handled transitively through the call graph
            reason, _ = direct_blocking_reason(index, func, env, call)
            if reason is not None:
                reasons.setdefault(
                    func.key, f"{reason} at {func.source.rel_path}:{call.lineno}"
                )
                break
    changed = True
    while changed:
        changed = False
        for caller, callees in sim.call_edges.items():
            if caller in reasons:
                continue
            for callee in sorted(callees):
                if callee in reasons:
                    target = index.functions.get(callee)
                    display = target.display if target is not None else callee
                    reasons[caller] = f"reaches {display}, which blocks: {reasons[callee]}"
                    changed = True
                    break
    return reasons


def check_blocking(program: Program) -> list[Finding]:
    blocking = classify_blocking(program.index, program.sim)
    findings: list[Finding] = []
    seen: set[tuple[str, int, str]] = set()
    for event in program.sim.under_lock_calls:
        held_names = ", ".join(short_name(lock) for lock in event.held)
        if event.blocking_reason is not None:
            message = (
                f"blocking call while holding {held_names}: "
                f"{event.blocking_reason}"
            )
            dedup = (event.caller.source.rel_path, event.line, "direct")
        else:
            culprit = next(
                (t for t in event.targets if t.key in blocking), None
            )
            if culprit is None:
                continue
            message = (
                f"call to {culprit.display} while holding {held_names}: "
                f"{blocking[culprit.key]}"
            )
            dedup = (event.caller.source.rel_path, event.line, culprit.key)
        if dedup in seen:
            continue
        seen.add(dedup)
        findings.append(
            event.caller.source.finding("conc-blocking", event.line, message)
        )
    return findings
