"""widthlab benchmark: three CLI workloads, end-to-end and per-layer metrics.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload stable-width --seed 1 --seconds 40 --trace 0

The load is a closed loop of one client.  A run first starts a few widthlab
processes that stop where the subcommand would begin, to sample set-up time.
Then it runs whole rounds while the next one is likely to end within
``--seconds`` of the run's start.  A round starts one fresh widthlab process
(``child.py`` around ``widthlab.cli.main``) and checks every artifact it
wrote (``checks.py``).  With ``--trace 1`` a round starts an untraced and a
traced process, and the run reports per-layer metrics from the traced one
(``spans.py``) in place of the end-to-end metrics.

One line per round goes to standard output, then every metric by name with
its unit, then one JSON object as the last line.  Times are medians over the
run's samples.  Artifacts, span dumps and the result go under
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402

# set-up-only processes started before the rounds of every run
SETUP_REPS = 5
# a run exits within 180 s; no child may outlive this
CHILD_TIMEOUT_S = 170.0
# one pool worker per core at --threads 2, each with single-threaded BLAS,
# so no run uses more than the machine's 2 cores
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1"}
# seconds the calibration loop takes at the reference host speed; the
# end-to-end times are scaled to that speed (see calibrate)
CAL_REF_S = 0.15
# calibration loops timed before each set-up sample and each round
CAL_REPS = 2
_CAL_X = np.random.default_rng(0).standard_normal(2**21)


@dataclass(frozen=True)
class Workload:
    command: str
    threads: int
    check: Callable[[Path], list[checks.Op]]
    # widthlab seed when the benchmark seed cannot drive the workload
    fixed_seed: int | None = None

    def argv(self, seed: int, rnd: int, out: Path) -> list[str]:
        """widthlab arguments for round ``rnd`` of a run with benchmark seed ``seed``.

        Each round draws its own widthlab seed from (seed, rnd), so a run's
        medians cover several inputs and not one draw of the seed.
        """
        if self.fixed_seed is None:
            seed = int(np.random.SeedSequence([seed, rnd]).generate_state(1)[0])
        else:
            seed = self.fixed_seed
        return [self.command, "--seed", str(seed),
                "--threads", str(self.threads), "--out", str(out)]


# stable-width and cs run their default seed 0 whatever the benchmark seed:
# on some other seeds widthlab stops with an error (ExtensionFeasibilityError
# in stable-width, a net pair past the sampled RIP certificate in cs), and
# stable-width's cost moves 2x from seed to seed
WORKLOADS = {
    "stable-width": Workload("stable-width", 2, checks.check_stable_width,
                             fixed_seed=0),
    "cs": Workload("cs", 1, checks.check_cs, fixed_seed=0),
    "interp": Workload("interp", 1, checks.check_interp),
}

END_TO_END = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}

# per-layer metric -> unit; every one is reported on every workload
PER_LAYER = {
    "extend.kirszbraun_eval_batch.calls": "count",
    "extend.kirszbraun_eval_batch.queries": "count",
    "extend.kirszbraun_eval_batch.self_s": "s",
    "extend.kirszbraun_eval_batch.us_per_query": "us",
    "extend.kirszbraun_eval_batch.constraints_max": "count",
    "extend.lipschitz_audit.pairs": "count",
    "extend.lipschitz_audit.self_s": "s",
    "extend.sample_pairs.self_s": "s",
    "stablewidth.build_stable_pair.self_s": "s",
    "stablewidth.jl_project.self_s": "s",
    "stablewidth.evaluate_width.self_s": "s",
    "stablewidth.hilbert_linear_baseline.self_s": "s",
    "stablewidth.stability_probe.self_s": "s",
    "spaces.pairwise_distances.calls": "count",
    "spaces.pairwise_distances.self_s": "s",
    "spaces.pairwise_distances.bytes": "B",
    "nets.greedy_cover.calls": "count",
    "nets.greedy_cover.self_s": "s",
    "nets.greedy_packing.calls": "count",
    "nets.greedy_packing.self_s": "s",
    "nets.entropy_bracket.self_s": "s",
    "spaces.generate_sparse_class.self_s": "s",
    "spaces.generate_Kq.self_s": "s",
    "csrecovery.l1_decode.calls": "count",
    "csrecovery.l1_decode.self_s": "s",
    "csrecovery.l1_decode.capped": "count",
    "csrecovery.op_norm_bracket.self_s": "s",
    "csrecovery.rip_check.self_s": "s",
    "csrecovery.rip_check.supports": "count",
    "csrecovery.build_nonlinear_pair.self_s": "s",
    "csrecovery.instance_optimality_trials.self_s": "s",
    "interp.finite_rank_pipeline.self_s": "s",
    "interp.fftconvolve.self_s": "s",
    "interp.mesh_vertices": "count",
    "interp.pl_eval_batch.points": "count",
    "interp.pl_eval_batch.self_s": "s",
    "interp.cutoff_eval.points": "count",
    "interp.cutoff_eval.self_s": "s",
    "demos.map.points": "count",
    "demos.map.self_s": "s",
    "cli.write_csv.self_s": "s",
    "cli.csv_bytes": "B",
    "cli.import_s": "s",
    "trace.overhead_s": "s",
    "trace.uncovered_s": "s",
}

# per-layer metric -> (span name, attribute summed over its spans)
_SUMS = {
    "extend.kirszbraun_eval_batch.queries": ("extend.kirszbraun_eval_batch", "queries"),
    "extend.lipschitz_audit.pairs": ("extend.lipschitz_audit", "pairs"),
    "spaces.pairwise_distances.bytes": ("spaces.pairwise_distances", "bytes"),
    "csrecovery.l1_decode.capped": ("csrecovery.l1_decode", "capped"),
    "csrecovery.rip_check.supports": ("csrecovery.rip_check", "supports"),
    "interp.mesh_vertices": ("interp.finite_rank_pipeline", "vertices"),
    "interp.pl_eval_batch.points": ("interp.pl_eval_batch", "points"),
    "interp.cutoff_eval.points": ("interp.cutoff_eval", "points"),
    "demos.map.points": ("demos.map", "points"),
    "cli.csv_bytes": ("cli.write_csv", "bytes"),
}


class BenchError(RuntimeError):
    pass


def calibrate() -> float:
    """Seconds a fixed loop of numpy and interpreted work takes now.

    The host is shared, and its speed drifts by up to 1.5x over minutes, for
    this loop and widthlab alike.  A run times the loop before each set-up
    sample and each round, and scales its end-to-end times by CAL_REF_S over
    the median, so that runs made at different host speeds compare.  The
    loop runs no widthlab code, so no change to widthlab can move it.
    """
    start = time.perf_counter()
    np.fft.irfft(np.fft.rfft(_CAL_X)) * 1.0001 + _CAL_X
    fresh = np.ones(2**23)
    fresh *= 2.0
    acc = 0
    for i in range(100_000):
        acc += i * i % 7
    return time.perf_counter() - start


def child_env(root: Path) -> dict[str, str]:
    env = dict(os.environ, **CHILD_ENV)
    env["PYTHONPATH"] = str(root / "src")
    return env


def spawn(root: Path, mode: str, argv: list[str], record: Path,
          deadline: float) -> dict:
    """Start one widthlab process and return its timings and record."""
    cmd = [sys.executable, str(BENCH / "child.py"), str(record), mode, "--", *argv]
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=root, env=child_env(root),
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              text=True, timeout=max(1.0, deadline - start))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"widthlab {' '.join(argv[:1])} ({mode}) timed out") from exc
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    if proc.returncode != 0:
        tail = "\n".join(proc.stderr.strip().splitlines()[-5:])
        raise BenchError(f"widthlab {' '.join(argv)} ({mode}) exited "
                         f"{proc.returncode}:\n{tail}")
    rec = json.loads(record.read_text())
    rec["setup_s"] = rec["begin"] - start
    rec["wall_s"] = rec["end"] - rec["begin"]
    rec["cpu_s"] = (after.ru_utime - before.ru_utime
                    + after.ru_stime - before.ru_stime)
    return rec


def layer_metrics(spans: list, import_s: float) -> dict[str, float]:
    """Per-layer values of one traced process.

    Self time is a span's duration minus that of its direct children, which
    run on the same thread.  The uncovered time is the part of the root span
    (the subcommand) that no other span covers on any thread.
    """
    child_s: dict[int, float] = defaultdict(float)
    for sid, parent, name, start, end, attrs in spans:
        if parent is not None:
            child_s[parent] += end - start
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    sums: dict[tuple[str, str], float] = defaultdict(float)
    constraints_max = 0
    root = None
    for sid, parent, name, start, end, attrs in spans:
        if parent is None:
            root = (start, end)
            continue
        calls[name] += 1
        self_s[name] += end - start - child_s[sid]
        for key, value in (attrs or {}).items():
            sums[name, key] += value
        if name == "extend.kirszbraun_eval_batch":
            constraints_max = max(constraints_max, attrs["constraints"])
    if root is None:
        raise BenchError("traced process recorded no root span")
    covered, reach = 0.0, root[0]
    for start, end in sorted((s[3], s[4]) for s in spans if s[1] is not None):
        start, end = max(start, reach), min(end, root[1])
        if end > start:
            covered += end - start
            reach = end
    out: dict[str, float] = {}
    for metric in PER_LAYER:
        layer, _, field = metric.rpartition(".")
        if metric in _SUMS:
            out[metric] = sums[_SUMS[metric]]
        elif field == "calls":
            out[metric] = calls[layer]
        elif field == "self_s":
            out[metric] = self_s[layer]
    queries = sums["extend.kirszbraun_eval_batch", "queries"]
    out["extend.kirszbraun_eval_batch.us_per_query"] = (
        1e6 * self_s["extend.kirszbraun_eval_batch"] / queries if queries else 0.0)
    out["extend.kirszbraun_eval_batch.constraints_max"] = constraints_max
    out["cli.import_s"] = import_s
    out["trace.uncovered_s"] = root[1] - root[0] - covered
    return out


def run(workload: str, seed: int, seconds: float, trace: bool, root: Path) -> dict:
    spec = WORKLOADS[workload]
    work = BENCH / "out" / f"{workload}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    begin = time.monotonic()
    deadline = begin + CHILD_TIMEOUT_S
    # --seconds covers the set-up samples too
    stop = begin + seconds

    setup = []
    cal = []
    for i in range(SETUP_REPS):
        cal.extend(calibrate() for _ in range(CAL_REPS))
        rec = spawn(root, "setup", spec.argv(seed, 0, work / f"setup{i}"),
                    work / f"setup{i}.json", deadline)
        setup.append(rec["setup_s"])

    modes = ["run", "trace"] if trace else ["run"]
    samples: dict[str, list[dict]] = {mode: [] for mode in modes}
    attempted = failed = unexpected = 0
    # start no round that would likely end past the run's --seconds, so a
    # run lasts about --seconds whatever the length of its rounds
    round_s: list[float] = []
    rnd = 0
    while rnd == 0 or time.monotonic() + statistics.median(round_s) <= stop:
        round_start = time.monotonic()
        cal.extend(calibrate() for _ in range(CAL_REPS))
        for mode in modes:
            out = work / f"round{rnd}-{mode}"
            rec = spawn(root, mode, spec.argv(seed, rnd, out), work / f"round{rnd}-{mode}.json",
                        deadline)
            ops = spec.check(out)
            bad = [(label, problems) for label, problems in ops if problems]
            attempted += len(ops)
            failed += len(bad)
            unexpected += sum(not all(p.startswith(checks.KEPT_FAILURE) for p in problems)
                              for _, problems in bad)
            samples[mode].append(rec)
            setup.append(rec["setup_s"])
            print(f"round {rnd} {mode}: wall {rec['wall_s']:.3f} s, cpu "
                  f"{rec['cpu_s']:.3f} s, peak {rec['peak_rss_kb'] / 1024:.1f} MB, "
                  f"set-up {rec['setup_s']:.3f} s, {len(ops)} ops, {len(bad)} failed")
            for label, problems in bad:
                print(f"  FAILED {label}: {'; '.join(problems)}")
        round_s.append(time.monotonic() - round_start)
        rnd += 1

    runs = samples["run"]
    wall = statistics.median(r["wall_s"] for r in runs)
    if trace:
        traced = samples["trace"]
        per_round = [layer_metrics(r["spans"], r["import_s"]) for r in traced]
        values = {m: statistics.median(v[m] for v in per_round) for m in PER_LAYER
                  if m not in ("trace.overhead_s", "cli.import_s")}
        values["cli.import_s"] = statistics.median(r["import_s"] for r in runs + traced)
        values["trace.overhead_s"] = (
            statistics.median(r["wall_s"] for r in traced) - wall)
        units = PER_LAYER
        (work / "spans.json").write_text(json.dumps(
            [{"round": i, "wall_s": r["wall_s"], "spans": r["spans"]}
             for i, r in enumerate(traced)]))
    else:
        measured = {"wall_s": wall, "setup_s": statistics.median(setup),
                    "cpu_s": statistics.median(r["cpu_s"] for r in runs)}
        scale = CAL_REF_S / statistics.median(cal)
        print(f"calibration loop: median {statistics.median(cal):.4f} s over "
              f"{len(cal)} samples, times scaled by {scale:.4f}; as measured: "
              + ", ".join(f"{k} {v:.4f} s" for k, v in measured.items()))
        values = {name: value * scale for name, value in measured.items()}
        values["peak_rss_mb"] = statistics.median(r["peak_rss_kb"] for r in runs) / 1024
        units = END_TO_END
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    return {"correct": unexpected == 0,
            "attempted": attempted, "failed": failed, "metrics": metrics}


def _seed(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("seed must be nonnegative")
    return value


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=_seed, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "widthlab" / "cli.py").is_file():
        print(f"no widthlab source under {root / 'src'}; run from the root of "
              f"a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), root)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    for name, metric in result["metrics"].items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(f"attempted {result['attempted']}, failed {result['failed']}")
    line = json.dumps(result)
    (BENCH / "out" / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
