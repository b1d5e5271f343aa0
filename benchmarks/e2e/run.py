"""End-to-end benchmark entry point: ``python3 benchmarks/e2e/run.py --help``.

The command of BENCHMARK.json; everything lives in e2e_harness.py.
"""

import sys

from e2e_harness import main

if __name__ == "__main__":
    sys.exit(main())
