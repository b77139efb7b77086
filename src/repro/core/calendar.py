"""Historical home of the temporal types (now :mod:`repro.types.temporal`).

The one re-export shim left: the frozen benchmark harness
(``benchmarks/e2e/truth.py``) imports ``series_periods`` from this
path.  Nothing under ``src/`` may import it (lint rule
``layering-shim``).
"""

from repro.types.temporal import *  # noqa: F401,F403
from repro.types.temporal import __all__  # noqa: F401
