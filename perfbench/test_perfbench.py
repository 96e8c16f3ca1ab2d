"""Tests of the benchmark itself: its output checks and the metrics it prints.

Each output check must pass on real widthlab output and reject the same
output once one certificate row is corrupted.  stable-width and cs run here
at small scale; interp output comes from one real benchmark run,
which also shows that the printed metric names match BENCHMARK.json.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import run as bench

from widthlab.cli import main as widthlab_main

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

SMALL = {
    "stable-width": ("[stable-width]\ncount = 300\nn_min = 2\nn_max = 3\n"
                     "pair_samples = 2000\nprobes = 4\n"),
    "cs": "[cs]\ntrials = 20\nmatrices = 4\nnet_count = 200\n",
}


@pytest.fixture(scope="module")
def small_runs(tmp_path_factory):
    base = tmp_path_factory.mktemp("small")
    outs = {}
    for command, ini in SMALL.items():
        cfg = base / f"{command}.ini"
        cfg.write_text(ini)
        outs[command] = base / command
        assert widthlab_main([command, "--config", str(cfg), "--seed", "0",
                              "--out", str(outs[command])]) == 0
    return outs


@pytest.fixture(scope="module")
def bench_runs():
    """One real run per trace setting of the interp workload: (result, stdout)."""
    runs = {}
    for trace in (0, 1):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", "interp",
             "--seed", "5", "--seconds", "1", "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=170)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.strip().splitlines()
        runs[trace] = (json.loads(lines[-1]), lines)
    return runs


def copy_of(src: Path, dst: Path) -> Path:
    shutil.copytree(src, dst)
    return dst


def edit_row(path: Path, match: dict[str, str], changes: dict[str, str]) -> None:
    """Rewrite the first CSV row whose cells equal ``match``."""
    lines = path.read_text().splitlines()
    header = None
    for i, line in enumerate(lines):
        if line.startswith("#"):
            continue
        if header is None:
            header = line.split(",")
            continue
        row = dict(zip(header, line.split(",")))
        if all(row[k] == v for k, v in match.items()):
            row.update(changes)
            lines[i] = ",".join(row[k] for k in header)
            path.write_text("\n".join(lines) + "\n")
            return
    raise AssertionError(f"no row matches {match} in {path}")


def problems_of(ops, label: str) -> list[str]:
    return [p for lab, problems in ops if lab == label for p in problems]


def failing(ops) -> set[str]:
    return {label for label, problems in ops if problems}


def test_checks_pass_on_real_output(small_runs, bench_runs):
    assert failing(checks.check_cs(small_runs["cs"])) == set()
    ops = checks.check_stable_width(small_runs["stable-width"])
    for label, problems in ops:
        assert all(p.startswith(checks.KEPT_FAILURE) for p in problems), (label, problems)
    result, _ = bench_runs[0]
    assert result["correct"] and result["failed"] == 0


def test_stable_width_check_rejects_sup_error_above_bound(small_runs, tmp_path):
    out = copy_of(small_runs["stable-width"], tmp_path / "sw")
    assert not any("three_eps_upper" in p
                   for p in problems_of(checks.check_stable_width(out), "n=3"))
    edit_row(out / "stable_width.csv", {"n": "3"}, {"sup_error": "5.0"})
    assert any("three_eps_upper" in p
               for p in problems_of(checks.check_stable_width(out), "n=3"))


def test_stable_width_check_rejects_failed_probe(small_runs, tmp_path):
    out = copy_of(small_runs["stable-width"], tmp_path / "sw")
    assert problems_of(checks.check_stable_width(out), "probe 1") == []
    edit_row(out / "stability_probes.csv", {"probe": "1"},
             {"lhs": "9.0", "passed": "false"})
    assert problems_of(checks.check_stable_width(out), "probe 1")


def test_stable_width_check_rejects_linear_baseline_off_the_svd(small_runs, tmp_path):
    out = copy_of(small_runs["stable-width"], tmp_path / "sw")
    edit_row(out / "linear_baseline.csv", {"n": "3"}, {"linear_error": "0.01"})
    assert any("own residual" in p
               for p in problems_of(checks.check_stable_width(out), "n=3"))


def test_stable_width_exact_budget_is_the_kept_failure(small_runs, tmp_path):
    out = copy_of(small_runs["stable-width"], tmp_path / "sw")
    edit_row(out / "stable_width.csv", {"n": "2"}, {"lip_M": "2.0001"})
    problems = problems_of(checks.check_stable_width(out), "n=2")
    assert problems and all(p.startswith(checks.KEPT_FAILURE) for p in problems)
    edit_row(out / "stable_width.csv", {"n": "2"}, {"lip_M": "2.2"})
    problems = problems_of(checks.check_stable_width(out), "n=2")
    assert not all(p.startswith(checks.KEPT_FAILURE) for p in problems)


def test_cs_check_rejects_failed_trial(small_runs, tmp_path):
    out = copy_of(small_runs["cs"], tmp_path / "cs")
    edit_row(out / "instance_optimality.csv", {"trial": "3"},
             {"error": "99.0", "passed": "false"})
    assert problems_of(checks.check_cs(out), "dense 3")


def test_cs_check_rejects_inexact_p1_bracket(small_runs, tmp_path):
    out = copy_of(small_runs["cs"], tmp_path / "cs")
    _, rows = checks.read_csv(out / "operator_bounds.csv")
    upper = float(rows[0]["norm_upper"])
    edit_row(out / "operator_bounds.csv", {"matrix": "0", "p": "1.0"},
             {"norm_upper": repr(upper * 1.01)})
    assert any("max column norm" in p
               for p in problems_of(checks.check_cs(out), "matrix 0 p=1.0"))


def test_cs_check_rejects_low_planted_recovery(small_runs, tmp_path):
    out = copy_of(small_runs["cs"], tmp_path / "cs")
    for t in range(2):
        edit_row(out / "recovery_trials.csv", {"trial": str(t)},
                 {"error": "0.5", "recovered": "false"})
    assert problems_of(checks.check_cs(out), "planted recovery rate")


def _interp_out(bench_runs, tmp_path) -> Path:
    src = BENCH / "out" / "interp-seed5-trace0" / "round0-run"
    return copy_of(src, tmp_path / "interp")


def test_interp_check_rejects_deviation_above_eps(bench_runs, tmp_path):
    out = _interp_out(bench_runs, tmp_path)
    assert problems_of(checks.check_interp(out), "final audit") == []
    report = (out / "report.md").read_text()
    start = report.index("- sup deviation on S: ") + len("- sup deviation on S: ")
    end = report.index(" ", start)
    (out / "report.md").write_text(report[:start] + "0.5" + report[end:])
    assert any("sup_dev_on_S" in p
               for p in problems_of(checks.check_interp(out), "final audit"))


def test_interp_check_rejects_last_level_over_budget(bench_runs, tmp_path):
    out = _interp_out(bench_runs, tmp_path)
    _, rows = checks.read_csv(out / "interp_levels.csv")
    last = rows[-1]["level"]
    edit_row(out / "interp_levels.csv", {"level": last}, {"lip_excess": "1.0"})
    assert problems_of(checks.check_interp(out), f"level {last}")


def test_printed_metric_names_match_benchmark_json(bench_runs):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        result, lines = bench_runs[trace]
        declared = {m["name"]: m["unit"] for m in spec[key]}
        printed = {name: metric["unit"] for name, metric in result["metrics"].items()}
        assert printed == declared
        for name, unit in declared.items():
            assert any(line.startswith(f"{name} = ") and line.endswith(f" {unit}")
                       for line in lines), name
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)


def test_run_refuses_a_directory_without_widthlab_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cs", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
