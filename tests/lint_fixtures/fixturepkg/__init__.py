"""Deliberately broken package tree exercising every analyzer rule.

Scanned by ``tests/test_lint.py`` and ``tests/test_conc.py`` via
``run_lint(FIXTURE_ROOT)``; the top package is the directory's name,
``fixturepkg``, so the tree's own imports resolve like the real one's.
Never imported — pytest collects only ``test_*``/``bench_*`` files,
and several modules here reference undefined names on purpose.
"""
