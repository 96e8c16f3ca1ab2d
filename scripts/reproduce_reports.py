#!/usr/bin/env python3
"""Run every experiment subcommand and collect CSV + report output.

Equivalent to calling the CLI six times by hand; kept as a script so a
single invocation reproduces the full set of artifacts under runs/.
Pass --quick to shrink the expensive commands to smoke-test scale via a
temporary config overlay.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
from pathlib import Path

from widthlab.cli import COMMANDS, DEFAULTS, main

QUICK_OVERLAY = """
[entropy]
count = 300
n_max = 4

[stable-width]
count = 300
n_min = 2
n_max = 3
pair_samples = 2000
probes = 4

[counterexample]
k_max = 6
n_max = 4

[cs]
trials = 20
matrices = 4
net_count = 200

[interp]
map = plane-wave
eps = 0.02
min_levels = 2

[carl]
count = 400
n_max = 3
pair_samples = 1500
"""


def run(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="small settings for a fast end-to-end pass")
    parser.add_argument("--out", default="runs",
                        help="root output directory (default runs/)")
    parser.add_argument("--threads", type=int, default=1)
    parser.add_argument("--seed", type=int, default=None,
                        help="seed of every section that draws random numbers")
    args = parser.parse_args(argv)

    config_args: list[str] = []
    tmp = None
    if args.quick:
        tmp = tempfile.NamedTemporaryFile(
            "w", suffix=".ini", delete=False, prefix="widthlab_quick_")
        tmp.write(QUICK_OVERLAY)
        tmp.close()
        config_args = ["--config", tmp.name]

    try:
        for name in COMMANDS:
            argv_cmd = [name, "--out", str(Path(args.out) / name),
                        "--threads", str(args.threads)] + config_args
            if args.seed is not None and "seed" in DEFAULTS[name]:
                argv_cmd += ["--seed", str(args.seed)]
            print(f"--- widthlab {name}")
            code = main(argv_cmd)
            if code != 0:
                return code
    finally:
        if tmp is not None:
            Path(tmp.name).unlink(missing_ok=True)
    return 0


if __name__ == "__main__":
    sys.exit(run())
