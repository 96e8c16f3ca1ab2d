import concurrent.futures
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import widthlab
from widthlab import __version__
from widthlab.cli import (COMMANDS, DEFAULTS, _build_class, _parallel, main,
                          resolve_config)
from widthlab.csrecovery import L1ConvergenceError
from widthlab.extend import ExtensionFeasibilityError
from widthlab.interp import MeshBudgetError
from widthlab.stablewidth import JLDistortionError

SMALL_ENTROPY = """
[entropy]
count = 60
ambient_dim = 8
n_min = 1
n_max = 3
"""


def test_resolve_config_defaults_and_seed_override():
    cfg = resolve_config("entropy", None, None)
    assert cfg == DEFAULTS["entropy"]
    cfg = resolve_config("entropy", None, 123)
    assert cfg["seed"] == "123"


def test_resolve_config_reads_ini_sections(tmp_path):
    path = tmp_path / "cfg.ini"
    path.write_text(SMALL_ENTROPY)
    cfg = resolve_config("entropy", str(path), None)
    assert cfg["count"] == "60"
    assert cfg["ambient_dim"] == "8"
    assert cfg["class"] == DEFAULTS["entropy"]["class"]


def test_resolve_config_missing_file_errors():
    with pytest.raises(SystemExit):
        resolve_config("entropy", "/nonexistent/widthlab.ini", None)


def run_cli(tmp_path, name, ini, seed=None, threads=1):
    cfg_path = tmp_path / "cfg.ini"
    cfg_path.write_text(ini)
    out = tmp_path / name
    argv = [name, "--config", str(cfg_path), "--out", str(out),
            "--threads", str(threads)]
    if seed is not None:
        argv += ["--seed", str(seed)]
    assert main(argv) == 0
    return out


def test_entropy_command_outputs_are_deterministic(tmp_path):
    out1 = run_cli(tmp_path, "entropy", SMALL_ENTROPY, seed=5)
    csv1 = (out1 / "entropy.csv").read_text()
    assert csv1.startswith(f"# widthlab {__version__}")
    assert "count = 60" in csv1  # resolved config embedded in the header
    assert (out1 / "report.md").exists()

    rerun_dir = tmp_path / "again"
    rerun_dir.mkdir()
    out2 = run_cli(rerun_dir, "entropy", SMALL_ENTROPY, seed=5)
    assert (out2 / "entropy.csv").read_text() == csv1

    threaded_dir = tmp_path / "threaded"
    threaded_dir.mkdir()
    out3 = run_cli(threaded_dir, "entropy", SMALL_ENTROPY, seed=5, threads=4)
    assert (out3 / "entropy.csv").read_text() == csv1


def test_entropy_seed_changes_the_numbers(tmp_path):
    out1 = run_cli(tmp_path, "entropy", SMALL_ENTROPY, seed=5)
    other = tmp_path / "other"
    other.mkdir()
    out2 = run_cli(other, "entropy", SMALL_ENTROPY, seed=6)
    rows1 = (out1 / "entropy.csv").read_text().splitlines()
    rows2 = (out2 / "entropy.csv").read_text().splitlines()
    assert rows1 != rows2


SMALL_WIDTHS = """
[stable-width]
count = 200
n_max = 3
pair_samples = 500
probes = 2

[carl]
count = 200
n_max = 3
pair_samples = 500
"""


def outputs_at_threads(tmp_path, name, ini, threads):
    """Bytes of every CSV and the report of one run, by file name."""
    run_dir = tmp_path / f"threads{threads}"
    run_dir.mkdir()
    out = run_cli(run_dir, name, ini, threads=threads)
    files = sorted(out.glob("*.csv"))
    assert files
    return {path.name: path.read_bytes() for path in files + [out / "report.md"]}


@pytest.mark.parametrize("name", ["stable-width", "carl"])
def test_width_commands_are_thread_count_invariant(tmp_path, name):
    assert (outputs_at_threads(tmp_path, name, SMALL_WIDTHS, 1)
            == outputs_at_threads(tmp_path, name, SMALL_WIDTHS, 2))


SMALL_CS = """
[cs]
n = 20
ambient_dim = 40
k = 2
trials = 10
net_count = 60
matrices = 3
"""


def test_cs_command_is_thread_count_invariant(tmp_path):
    # the operator-bound rows are the work items that cross into workers
    assert (outputs_at_threads(tmp_path, "cs", SMALL_CS, 1)
            == outputs_at_threads(tmp_path, "cs", SMALL_CS, 2))


def test_cs_report_counts_capped_l1_solves(tmp_path, monkeypatch):
    import widthlab.cli as cli

    solve = cli.l1_decode
    calls = []

    def capped_every_third(Phi, y):
        calls.append(None)
        xhat = solve(Phi, y)
        if len(calls) % 3 == 0:
            raise L1ConvergenceError(1e-3, 20_000, xhat)
        return xhat

    monkeypatch.setattr(cli, "l1_decode", capped_every_third)
    out = run_cli(tmp_path, "cs", SMALL_CS)
    report = (out / "report.md").read_text()
    # the capped iterates are still scored: 10 trials, 3 of them capped
    assert "- planted recovery: 10/10 (capped solves scored as-is: 3)" in report


SOLVER_ERRORS = [
    (ExtensionFeasibilityError(4.5e-8, 100_000), ("max_residual", "iterations")),
    (JLDistortionError(50, 0.4375), ("tries", "worst_ratio")),
    (L1ConvergenceError(2.5e-7, 20_000, np.linspace(-1.0, 1.0, 7)),
     ("gap", "iterations", "iterate")),
    (MeshBudgetError(0.03125, 0.125, 3_533_785),
     ("achieved_dev", "achieved_excess", "vertices")),
]


@pytest.mark.parametrize("error, fields", SOLVER_ERRORS,
                         ids=[type(e).__name__ for e, _ in SOLVER_ERRORS])
def test_solver_errors_pickle_with_message_and_fields(error, fields):
    # a worker process hands its exception back to the caller as a pickle
    copy = pickle.loads(pickle.dumps(error))
    assert type(copy) is type(error)
    assert str(copy) == str(error)
    for field in fields:
        assert np.array_equal(getattr(copy, field), getattr(error, field))


def _fail_on_three(item: int) -> int:
    if item == 3:
        raise ExtensionFeasibilityError(4.5e-8, 100_000)
    return item


def test_parallel_runs_items_in_order_and_raises_the_worker_error():
    assert _parallel(abs, [-3, 1, -4, 1, -5], threads=2) == [3, 1, 4, 1, 5]
    with pytest.raises(ExtensionFeasibilityError) as info:
        _parallel(_fail_on_three, [1, 2, 3, 4], threads=2)
    assert info.value.max_residual == 4.5e-8
    assert info.value.iterations == 100_000


def test_parallel_starts_no_more_workers_than_items(monkeypatch):
    started = []

    class RecordingPool:
        def __init__(self, max_workers, mp_context=None):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    items = [-1, -2, -3, -4]
    assert _parallel(abs, items, threads=64) == [1, 2, 3, 4]
    assert _parallel(abs, items, threads=3) == [1, 2, 3, 4]
    # one item, or one thread, runs in this process
    assert _parallel(abs, items[:1], threads=64) == [1]
    assert _parallel(abs, items, threads=1) == [1, 2, 3, 4]
    assert started == [4, 3]


def test_counterexample_command_smoke(tmp_path):
    out = run_cli(tmp_path, "counterexample", "[counterexample]\nk_max = 5\nn_max = 3\n")
    body = (out / "counterexample_maps.csv").read_text()
    assert body.count("\n") >= 5  # header + k = 2..5
    report = (out / "report.md").read_text()
    assert "true" in report


def test_unknown_class_label_fails_without_artifacts(tmp_path):
    out = tmp_path / "entropy"
    cfg = tmp_path / "cfg.ini"
    cfg.write_text("[entropy]\nclass = bogus\n")
    with pytest.raises(SystemExit):
        main(["entropy", "--config", str(cfg), "--out", str(out)])
    assert not list(out.glob("*.csv"))


def test_unknown_setting_fails_naming_key_and_section(tmp_path):
    # a misspelt key would otherwise run at the default and be echoed into
    # every header as if it had been applied
    cfg = tmp_path / "cfg.ini"
    cfg.write_text("[stable-width]\npair_sample = 500\n")
    with pytest.raises(SystemExit, match=r"'pair_sample' in \[stable-width\]"):
        resolve_config("stable-width", str(cfg), None)


def test_multi_line_setting_fails_naming_key_and_section(tmp_path):
    # configparser joins an indented continuation line into the value, and
    # the newline would split the "# key = value" header of every CSV
    out = tmp_path / "cs"
    cfg = tmp_path / "cfg.ini"
    cfg.write_text("[cs]\np_values = 1.0,\n    2.0\n")
    with pytest.raises(SystemExit, match=r"'p_values' in \[cs\]"):
        main(["cs", "--config", str(cfg), "--out", str(out)])
    assert not list(out.glob("*.csv"))


def test_unknown_interp_map_fails_listing_the_maps(tmp_path):
    out = tmp_path / "interp"
    cfg = tmp_path / "cfg.ini"
    cfg.write_text("[interp]\nmap = bogus\n")
    with pytest.raises(SystemExit, match="'bogus' .*scalar-wave, plane-wave"):
        main(["interp", "--config", str(cfg), "--out", str(out)])
    assert not list(out.glob("*.csv"))


def test_every_default_setting_is_read_by_the_cli():
    import widthlab.cli as cli

    source = Path(cli.__file__).read_text()
    unread = sorted({key for section in DEFAULTS.values() for key in section
                     if f'cfg["{key}"]' not in source})
    assert unread == []


README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_ini_example_runs_as_written(tmp_path):
    block = README.read_text().split("```ini\n", 1)[1].split("```", 1)[0]
    path = tmp_path / "readme.ini"
    path.write_text(block)
    assert block.startswith("[stable-width]\n")
    cfg = resolve_config("stable-width", str(path), None)
    K = _build_class(cfg)
    assert K.count == int(cfg["count"]) and K.space.dim == int(cfg["ambient_dim"])


def test_interp_command_smoke(tmp_path):
    ini = "[interp]\nmap = plane-wave\neps = 0.02\nmin_levels = 2\n"
    out = run_cli(tmp_path, "interp", ini)
    levels = (out / "interp_levels.csv").read_text()
    header = [line for line in levels.splitlines()
              if not line.startswith("#")][0]
    assert header.split(",") == [
        "level", "subdivisions", "h", "sup_err", "lip_excess",
        "sup_err_smooth", "lip_excess_smooth"]


SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "reproduce_reports.py"


def run_python(args: list[str], timeout: int) -> subprocess.CompletedProcess:
    """Run the interpreter on args, importing the widthlab these tests import."""
    src = str(Path(widthlab.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          timeout=timeout, env={**os.environ, "PYTHONPATH": path})


def test_reproduce_script_advertises_usage():
    proc = run_python([str(SCRIPT), "--help"], timeout=60)
    assert proc.returncode == 0
    assert "--quick" in proc.stdout


def test_reproduce_script_quick_run_writes_every_artifact(tmp_path):
    proc = run_python([str(SCRIPT), "--quick", "--out", str(tmp_path)], timeout=300)
    assert proc.returncode == 0, proc.stderr
    expected = {
        "entropy": ["entropy.csv"],
        "stable-width": ["linear_baseline.csv", "stability_probes.csv",
                         "stable_width.csv"],
        "counterexample": ["counterexample_entropy.csv",
                           "counterexample_maps.csv"],
        "cs": ["instance_optimality.csv", "operator_bounds.csv",
               "recovery_trials.csv"],
        "interp": ["interp_levels.csv"],
        "carl": ["carl_cover.csv", "carl_rate.csv"],
    }
    assert sorted(expected) == sorted(COMMANDS)
    for name, csvs in expected.items():
        assert sorted(p.name for p in (tmp_path / name).glob("*.csv")) == csvs
        assert (tmp_path / name / "report.md").is_file()


def test_cli_import_loads_no_scipy():
    code = ("import sys, widthlab.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = run_python(["-c", code], timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_interp_pipeline_smooths_without_scipy_signal():
    # smoothing runs on scipy.fft alone; scipy.signal costs about a second
    # of imports, more than the whole small run below
    code = (
        "import sys, numpy as np\n"
        "import widthlab.interp as wi\n"
        "taps = []\n"
        "smooth = wi._smooth_grid\n"
        "def counted(grid, mesh, stencil, base):\n"
        "    taps.append(stencil.size)\n"
        "    return smooth(grid, mesh, stencil, base)\n"
        "wi._smooth_grid = counted\n"
        "wi.finite_rank_pipeline(\n"
        "    lambda X: np.stack([0.5 * X[:, 0], -0.25 * X[:, 0]], axis=1),\n"
        "    np.linspace(-0.5, 0.5, 41)[:, None], gamma=0.7, eps=0.5,\n"
        "    delta=0.5, seed=0, initial_subdivisions=8, min_levels=2)\n"
        "print(max(taps), 'scipy.fft' in sys.modules, 'scipy.signal' in sys.modules)\n"
    )
    proc = run_python(["-c", code], timeout=60)
    assert proc.returncode == 0, proc.stderr
    taps, fft_loaded, signal_loaded = proc.stdout.split()
    assert int(taps) > 1 and fft_loaded == "True"  # a stencil was applied
    assert signal_loaded == "False"


def test_cli_import_loads_no_process_pool():
    # --threads 1 runs never pay for the pool's import
    code = ("import sys, widthlab.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == "
            "'multiprocessing' or m == 'concurrent.futures.process'))")
    proc = run_python(["-c", code], timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_package_exports_every_public_module_name():
    import importlib

    missing = []
    for name in ("spaces", "nets", "extend", "stablewidth", "counterexample",
                 "csrecovery", "interp", "demos"):
        module = importlib.import_module(f"widthlab.{name}")
        missing += [f"{name}.{attr}" for attr in module.__all__
                    if not hasattr(widthlab, attr)]
    assert not missing


# exported functions that no module of the package calls yet, each with
# the consumer it waits for
UNCONSUMED_EXPORTS = {
    # perfbench/spans.py times it as a span target
    "greedy_packing",
    # carl's two-sided cover check is to call it (ROADMAP item 4)
    "build_net",
}


def test_every_exported_function_has_a_consumer_in_the_package():
    import ast
    import importlib
    import inspect

    used = set()
    for path in Path(widthlab.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    unused = []
    for name in ("spaces", "nets", "extend", "stablewidth", "counterexample",
                 "csrecovery", "interp", "demos"):
        module = importlib.import_module(f"widthlab.{name}")
        unused += [attr for attr in module.__all__
                   if inspect.isfunction(getattr(module, attr))
                   and attr not in used and attr not in UNCONSUMED_EXPORTS]
    assert not unused
    # an exemption whose function gained a consumer is dropped
    assert not UNCONSUMED_EXPORTS & used
