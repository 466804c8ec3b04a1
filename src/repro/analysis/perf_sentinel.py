"""``python -m repro.analysis.perf_sentinel``: the perf-regression sentinel CLI.

Runs :func:`repro.analysis.perf_report.main` (one verdict per line, exit 1
on any regression).  :mod:`repro.analysis` never imports this module, so
``-m`` runs it without ``runpy`` warning that it was already imported.
"""

import sys

from .perf_report import main

if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
