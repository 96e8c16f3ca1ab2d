#!/usr/bin/env python3
"""Count the stable-width rows whose sampled audits break their budgets.

Runs `widthlab stable-width` once per seed of a range, at the defaults or
under an INI overlay (--config), and reads each run's stable_width.csv.
Per seed and in total it prints four counts:

- lip_M: rows whose decoder audit exceeds GAMMA_M (1 + 1e-9);
- lip_a: rows whose encoder audit exceeds GAMMA_A + 1e-12;
- lip_a_ulp: rows whose encoder audit lies in (GAMMA_A, GAMMA_A + 1e-12],
  the last bits of a rescaled projection;
- error: runs that stopped with an exception (its name is printed, and
  its traceback goes to stderr).

    PYTHONPATH=src python scripts/budget_failures.py --seeds 0 17 --threads 2
"""

from __future__ import annotations

import argparse
import contextlib
import sys
import traceback
from pathlib import Path

from widthlab.cli import main
from widthlab.stablewidth import GAMMA_A, GAMMA_M

COLUMNS = ["lip_M", "lip_a", "lip_a_ulp", "error"]


def read_rows(path: Path) -> list[dict[str, str]]:
    """The data rows of a widthlab CSV, by column name."""
    lines = [line for line in path.read_text().splitlines()
             if not line.startswith("#")]
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def count_failures(rows: list[dict[str, str]]) -> dict[str, int]:
    """The three row counts of one stable_width.csv."""
    lip_a = [float(row["lip_a"]) for row in rows]
    return {
        "lip_M": sum(float(row["lip_M"]) > GAMMA_M * (1.0 + 1e-9) for row in rows),
        "lip_a": sum(a > GAMMA_A + 1e-12 for a in lip_a),
        "lip_a_ulp": sum(GAMMA_A < a <= GAMMA_A + 1e-12 for a in lip_a),
    }


def run(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", type=int, nargs=2, default=[0, 17],
                        metavar=("FIRST", "LAST"),
                        help="inclusive seed range (default 0 17)")
    parser.add_argument("--threads", type=int, default=1)
    parser.add_argument("--config", default=None,
                        help="INI overlay; section [stable-width] applies")
    parser.add_argument("--out", default="runs/budget_failures",
                        help="root output directory, one seed_<s>/ per seed")
    args = parser.parse_args(argv)

    totals = dict.fromkeys(COLUMNS, 0)
    print("seed", *COLUMNS)
    for seed in range(args.seeds[0], args.seeds[1] + 1):
        out = Path(args.out) / f"seed_{seed}"
        argv_cmd = ["stable-width", "--seed", str(seed), "--out", str(out),
                    "--threads", str(args.threads)]
        if args.config:
            argv_cmd += ["--config", args.config]
        try:
            # the CLI's own progress line goes to stderr, off the table
            with contextlib.redirect_stdout(sys.stderr):
                main(argv_cmd)
        except Exception as exc:  # a run that stops counts as an error
            traceback.print_exc()
            counts = dict.fromkeys(COLUMNS[:3], 0)
            error = type(exc).__name__
            totals["error"] += 1
        else:
            counts = count_failures(read_rows(out / "stable_width.csv"))
            error = "-"
        for key, value in counts.items():
            totals[key] += value
        print(seed, *counts.values(), error, flush=True)
    print("total", *totals.values())
    return 0


if __name__ == "__main__":
    sys.exit(run())
