"""Gate a pull request on what the end-to-end benchmark measures exactly.

``python3 benchmarks/e2e/run.py --compare BASE HEAD`` exits 1 on any
``worse`` row, host times included — right for a builder reading ten
alternating pairs, wrong for one pair on a shared CI runner, where a time
can read 20% off for reasons no commit caused.  This wrapper runs that
comparison, keeps its whole table as the report, and fails only on rows
that repeat run to run: ``peak_rss_mb`` past its bound, a simulated result
(``sim_latency_s``, ``wire_mb``, ``fleet_energy_j``, ``final_accuracy``),
the history digest, the exact counts and ``failed_ops_ratio``.  The time
verdicts stay in the report, which CI uploads, and gate nothing.

    python3 benchmarks/e2e_gate.py base.json head.json --report verdicts.txt
"""

from __future__ import annotations

import argparse
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "e2e" / "run.py"

#: host-time rows of the ``--compare`` table: reported, never gating
TIME_METRICS = frozenset({"setup_s", "run_wall_s", "process_wall_s", "client_rounds_per_s"})


def gating_failures(table: str) -> list[str]:
    """The ``worse`` rows of a ``--compare`` table that are not host times."""
    failures = []
    for line in table.splitlines():
        fields = line.split()
        if len(fields) >= 3 and fields[-1] == "worse" and fields[1] not in TIME_METRICS:
            failures.append(line)
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("base", type=Path, help="--out file of the base commit")
    parser.add_argument("head", type=Path, help="--out file of the head commit")
    parser.add_argument("--report", type=Path, default=None,
                        help="also write the full --compare table here")
    args = parser.parse_args(argv)

    compared = subprocess.run(
        [sys.executable, str(RUN), "--compare", str(args.base), str(args.head)],
        capture_output=True, text=True,
    )
    if compared.returncode not in (0, 1):  # 1 only says "some row is worse"
        sys.stderr.write(compared.stderr)
        return compared.returncode
    print(compared.stdout, end="")
    if args.report is not None:
        args.report.write_text(compared.stdout)

    failures = gating_failures(compared.stdout)
    for line in failures:
        print(f"GATE: {line}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
