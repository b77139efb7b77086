"""Project-specific static analysis for the RASED reproduction.

Fifteen rule ids across eleven checkers (see DESIGN.md §9 "Static
analysis", which also holds the mutation audit that keeps each one):

======================= ==================================================
rule                    enforces
======================= ==================================================
``layering``            imports follow the declared layer DAG
``layering-cycle``      no package import cycles
``layering-undeclared`` every package appears in the DAG
``layering-shim``       no in-tree import of a re-export shim
``unreached``           every module is imported from an entry point
                        (``cli``, ``tools.lint.__main__``) or is a shim
``lock-guard``          ``# guarded-by: <lock>`` attributes mutate only
                        under ``with self.<lock>:``
``hot-path-clock``      no wall-clock reads in ``core``/``storage``
``broad-except``        broad handlers re-raise or justify themselves
``except-pass``         no silent ``except ...: pass``
``mutable-default``     no mutable default arguments
``cube-order``          axis tuples match ``CubeSchema.AXES`` order
``metric-name``         metric names only via module-level constants
``todo``                no TODO/FIXME comments left in the tree
``conc-blocking``       no blocking call (modeled disk read, sleep,
                        future wait, file I/O) while a lock is held,
                        directly or through any resolvable call chain
``conc-atomicity``      guarded state is read and acted on under one
                        continuous lock acquisition
======================= ==================================================

Run via ``rased-repro lint`` or ``python -m repro.tools.lint``; any
finding fails the run.  The only way to accept one is in place, on its
line: ``# lint: allow[<rule>] <reason>``.
"""
