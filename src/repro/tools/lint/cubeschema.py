"""Cube-schema and observability consistency rules.

* ``cube-order`` — literal tuples/lists naming cube axes must list them
  in the canonical order of ``repro.types.dimensions.CubeSchema.AXES``
  (``element_type, country, road_type, update_type``).  In the
  construction/serialization packages (``types``, ``storage``,
  ``core``) any literal naming two or more axes is checked; elsewhere
  only literals naming *all four* axes are checked (partial orders in
  e.g. a user-facing ``group_by`` are presentation choices).
* ``metric-name`` — metric names reach the registry only through
  module-level constants: calls to ``inc``/``observe``/``inc_key``/
  ``observe_key`` must not pass a string literal, and ``metric_key``
  with a string literal is only allowed at module scope (preparing a
  ``_K_*`` constant).  This keeps the metric namespace greppable in
  one place per module and stops ad-hoc series names drifting apart.
"""

from __future__ import annotations

import ast

from repro.tools.lint.model import (
    CUBE_ORDER_STRICT_PACKAGES,
    OBS_PACKAGES,
    Finding,
    Program,
)
from repro.types.dimensions import CubeSchema

__all__ = ["check_cube_order", "check_metric_names"]

_REGISTRY_WRITERS = frozenset({"inc", "observe", "inc_key", "observe_key"})


def _axis_elements(node: ast.expr, axes: tuple[str, ...]) -> list[str] | None:
    if not isinstance(node, (ast.Tuple, ast.List)):
        return None
    values: list[str] = []
    for element in node.elts:
        if isinstance(element, ast.Constant) and isinstance(element.value, str):
            values.append(element.value)
        else:
            return None  # non-literal member: not a schema statement
    return [value for value in values if value in axes]


def check_cube_order(program: Program) -> list[Finding]:
    axes = CubeSchema.AXES
    rank = {name: position for position, name in enumerate(axes)}
    findings: list[Finding] = []
    for source in program.sources:
        strict = source.package in CUBE_ORDER_STRICT_PACKAGES
        for node in ast.walk(source.tree):
            present = _axis_elements(node, axes)
            if present is None or len(set(present)) != len(present):
                continue
            threshold = 2 if strict else len(axes)
            if len(present) < threshold:
                continue
            if present != sorted(present, key=rank.__getitem__):
                expected = [name for name in axes if name in present]
                findings.append(
                    source.finding(
                        "cube-order",
                        node.lineno,
                        f"axis tuple {tuple(present)!r} deviates from the "
                        f"canonical dimension order {tuple(expected)!r} "
                        f"(repro.types.dimensions.CubeSchema.AXES)",
                    )
                )
    return findings


def check_metric_names(program: Program) -> list[Finding]:
    findings: list[Finding] = []
    for source in program.sources:
        if source.package in OBS_PACKAGES:
            continue
        function_calls = _function_scope_calls(source.tree)
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.Call) or not node.args:
                continue
            first = node.args[0]
            literal = isinstance(first, ast.Constant) and isinstance(
                first.value, str
            )
            if not literal:
                continue
            func = node.func
            if isinstance(func, ast.Attribute) and func.attr in _REGISTRY_WRITERS:
                findings.append(
                    source.finding(
                        "metric-name",
                        node.lineno,
                        f"metric name string literal passed to .{func.attr}(); "
                        f"hoist it into a module-level constant "
                        f"(or a prepared metric_key)",
                    )
                )
            elif (
                isinstance(func, ast.Name)
                and func.id == "metric_key"
                and id(node) in function_calls
            ):
                findings.append(
                    source.finding(
                        "metric-name",
                        node.lineno,
                        "metric_key() with a literal name inside a function; "
                        "prepare the key as a module-level constant",
                    )
                )
    return findings


def _function_scope_calls(tree: ast.Module) -> set[int]:
    """Identity set of Call nodes appearing inside function bodies.

    Calls at module or class scope (constant preparation) are excluded.
    """
    calls: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for inner in ast.walk(node):
                if isinstance(inner, ast.Call):
                    calls.add(id(inner))
    return calls
