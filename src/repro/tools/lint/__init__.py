"""Project-specific static analysis for the RASED reproduction.

Twelve rule ids across five checkers (see DESIGN.md §"Static analysis"):

======================= ==================================================
rule                    enforces
======================= ==================================================
``layering``            imports follow the declared layer DAG
``layering-cycle``      no package import cycles
``layering-undeclared`` every package appears in the DAG
``layering-shim``       no in-tree import of a re-export shim
``lock-guard``          ``# guarded-by: <lock>`` attributes mutate only
                        under ``with self.<lock>:``
``hot-path-clock``      no wall-clock reads in ``core``/``storage``
``broad-except``        broad handlers re-raise or justify themselves
``except-pass``         no silent ``except ...: pass``
``mutable-default``     no mutable default arguments
``cube-order``          axis tuples match ``CubeSchema.AXES`` order
``metric-name``         metric names only via module-level constants
``todo``                TODO/FIXME comments are baseline-tracked
======================= ==================================================

Run via ``rased-repro lint`` or ``python -m repro.tools.lint``; findings
not in the checked-in ``lint-baseline.json`` fail the run.  Suppress a
single line with ``# lint: allow[<rule>] <reason>``.
"""

from repro.tools.lint.cli import main
from repro.tools.lint.model import Finding, LintConfig, SourceFile
from repro.tools.lint.runner import LintReport, RULES, run_lint

__all__ = [
    "Finding",
    "LintConfig",
    "LintReport",
    "RULES",
    "SourceFile",
    "main",
    "run_lint",
]
