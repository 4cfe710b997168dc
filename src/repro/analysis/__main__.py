"""Module entry point: ``python -m repro.analysis PATH...``."""

import sys

from repro.analysis.engine import main

if __name__ == "__main__":
    sys.exit(main())
