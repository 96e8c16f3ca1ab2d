import ast
import concurrent.futures
import multiprocessing
import os
import pickle
import runpy
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import widthlab
from widthlab import __version__
from widthlab.cli import (COMMANDS, DEFAULTS, _build_class, _float_list,
                          _parallel, main, resolve_config)
from widthlab.counterexample import DiagMaps, decoder_lipschitz
from widthlab.csrecovery import L1ConvergenceError
from widthlab.extend import ExtensionFeasibilityError
from widthlab.interp import MeshBudgetError
from widthlab.nets import entropy_bracket
from widthlab.spaces import AlphaSequence
from widthlab.stablewidth import JLDistortionError

from test_csrecovery import capped_every_third

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


def test_carl_base_is_never_below_the_decoder_budgets(tmp_path):
    # a sampled audit is a lower bound on a constant, so A = 1 + 16 gamma^2
    # takes the budget gamma_M = 2 where the audits read below it
    out = run_cli(tmp_path, "carl", SMALL_WIDTHS)
    text = (out / "carl_cover.csv").read_text()
    lines = [line.split(",") for line in text.splitlines() if not line.startswith("#")]
    assert lines[0][2] == "A"
    assert {row[2] for row in lines[1:]} == {"65.0"}
    report = (out / "report.md").read_text()
    assert "- base A = 65.0 at gamma = 2.0" in report
    # only a diag class shares r with the rate
    assert COUPLED_R not in report


COUPLED_R = "is both the rate exponent and the diag class's alpha exponent"


def test_carl_report_names_the_coupled_r_of_a_diag_class(tmp_path):
    out = run_cli(tmp_path, "carl",
                  "[carl]\nclass = diag\nambient_dim = 16\nn_max = 2\n"
                  "pair_samples = 300\nr = 1.5\n")
    lines = (out / "report.md").read_text().splitlines()
    assert [line for line in lines if COUPLED_R in line] == [
        f"- r = 1.5 {COUPLED_R}, alpha_j = (1 + log2 j)^(-r/2)"]


BUDGET_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "budget_failures.py"


def test_budget_failures_prints_the_counts_of_its_csvs(tmp_path, capsys):
    script = runpy.run_path(str(BUDGET_SCRIPT))
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(SMALL_WIDTHS)
    assert script["run"](["--seeds", "0", "1", "--config", str(cfg),
                          "--out", str(tmp_path / "runs")]) == 0
    table = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert table[0] == ["seed", "lip_M", "lip_a", "lip_a_ulp", "error"]
    totals = np.zeros(4, dtype=int)
    for seed, row in zip([0, 1], table[1:3]):
        text = (tmp_path / "runs" / f"seed_{seed}" / "stable_width.csv").read_text()
        lines = [line.split(",") for line in text.splitlines()
                 if not line.startswith("#")]
        a = np.array([float(r[lines[0].index("lip_a")]) for r in lines[1:]])
        M = np.array([float(r[lines[0].index("lip_M")]) for r in lines[1:]])
        assert len(a) == 2  # n = 2, 3
        counts = [int(np.sum(M > 2.0 * (1.0 + 1e-9))), int(np.sum(a > 1.0 + 1e-12)),
                  int(np.sum((a > 1.0) & (a <= 1.0 + 1e-12))), 0]
        assert row == [str(seed), *map(str, counts[:3]), "-"]
        totals += counts
    assert table[3] == ["total", *map(str, totals)]
    assert len(table) == 4


def test_budget_failures_counts_a_run_that_stops(tmp_path, capsys):
    script = runpy.run_path(str(BUDGET_SCRIPT))

    def stop(argv):
        raise ExtensionFeasibilityError(1e-3, 100_000)

    script["run"].__globals__["main"] = stop
    assert script["run"](["--seeds", "5", "6", "--out", str(tmp_path)]) == 0
    out, err = capsys.readouterr()
    assert [line.split() for line in out.splitlines()[1:]] == [
        ["5", "0", "0", "0", "ExtensionFeasibilityError"],
        ["6", "0", "0", "0", "ExtensionFeasibilityError"],
        ["total", "0", "0", "0", "2"],
    ]
    assert err.count("Traceback") == 2


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
    # cs runs in the calling process at any --threads; its numbers must not
    # read the setting either
    assert (outputs_at_threads(tmp_path, "cs", SMALL_CS, 1)
            == outputs_at_threads(tmp_path, "cs", SMALL_CS, 2))


def test_cs_report_counts_capped_l1_solves(tmp_path, monkeypatch):
    import widthlab.csrecovery as csrecovery

    monkeypatch.setattr(csrecovery, "l1_decode", capped_every_third())
    out = run_cli(tmp_path, "cs", SMALL_CS)
    report = (out / "report.md").read_text()
    # the capped iterates, half the solution, are still scored: 10 trials,
    # 3 of them capped and so missed
    assert "- planted recovery: 7/10 (capped solves scored as-is: 3)" in report


# a cs run whose rip_check enumerates all 66 supports of order 2
EXHAUSTIVE_RIP_CS = """
[cs]
n = 8
ambient_dim = 12
k = 1
trials = 10
net_count = 60
matrices = 2
"""


def test_cs_report_names_an_exhaustive_rip_check_exact(tmp_path):
    report = (run_cli(tmp_path, "cs", EXHAUSTIVE_RIP_CS)
              / "report.md").read_text()
    assert "- delta_2k, exact over 66 supports: " in report
    assert "sampled" not in report
    report = (run_cli(tmp_path, "cs", SMALL_CS) / "report.md").read_text()
    assert "- delta_2k, sampled lower estimate over " in report
    assert "exact" not in report


def test_cli_makes_no_random_draw():
    # the library draws every random number from the seeds the CLI hands
    # it; building a generator, or spawning seeds, is no draw
    draws = {name for name in dir(np.random.Generator)
             if not name.startswith("_")} - {"bit_generator", "spawn"}
    source = Path(widthlab.__file__).parent / "cli.py"
    calls = sorted(
        node.func.attr for node in ast.walk(ast.parse(source.read_text()))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr in draws)
    assert calls == []


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
    # a worker still running after the pool returns outlives the CLI
    assert _parallel(abs, [-3, 1, -4, 1, -5], threads=2) == [3, 1, 4, 1, 5]
    assert multiprocessing.active_children() == []
    with pytest.raises(ExtensionFeasibilityError) as info:
        _parallel(_fail_on_three, [1, 2, 3, 4], threads=2)
    assert info.value.max_residual == 4.5e-8
    assert info.value.iterations == 100_000
    assert multiprocessing.active_children() == []


# workers are forked from the CLI on Linux, and spawned where fork is
# missing or unsafe
POOL_START_METHOD = "fork" if sys.platform == "linux" else "spawn"


@pytest.fixture
def pool_starts(monkeypatch):
    """(workers, start method) of the process pools started; each maps in
    this process."""
    started = []

    class RecordingPool:
        def __init__(self, max_workers, mp_context=None):
            started.append((max_workers, mp_context.get_start_method()))

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    return started


def test_parallel_starts_no_more_workers_than_items(pool_starts):
    items = [-1, -2, -3, -4]
    assert _parallel(abs, items, threads=64) == [1, 2, 3, 4]
    assert _parallel(abs, items, threads=3) == [1, 2, 3, 4]
    # one item, or one thread, runs in this process
    assert _parallel(abs, items[:1], threads=64) == [1]
    assert _parallel(abs, items, threads=1) == [1, 2, 3, 4]
    assert pool_starts == [(4, POOL_START_METHOD), (3, POOL_START_METHOD)]


@pytest.mark.parametrize("name, ini, workers", [
    ("entropy", SMALL_ENTROPY, []),
    ("cs", SMALL_CS, []),
    ("stable-width", SMALL_WIDTHS, [2]),
], ids=["entropy", "cs", "stable-width"])
def test_only_the_width_series_starts_workers(tmp_path, pool_starts, name,
                                              ini, workers):
    run_cli(tmp_path, name, ini, threads=2)
    assert pool_starts == [(w, POOL_START_METHOD) for w in workers]


def test_counterexample_command_smoke(tmp_path):
    out = run_cli(tmp_path, "counterexample", "[counterexample]\nk_max = 5\nn_max = 3\n")
    body = (out / "counterexample_maps.csv").read_text()
    assert body.count("\n") >= 5  # header + k = 2..5
    rows = [line.split(",") for line in body.splitlines()
            if not line.startswith("#")]
    header = rows.pop(0)
    assert header == ["k", "sup_error", "sqrt2_alpha_k", "lip_Mk",
                      "lip_Mk_predicted"]
    assert [int(row[0]) for row in rows] == [2, 3, 4, 5]
    alpha = AlphaSequence(float(DEFAULTS["counterexample"]["r"]))
    for row in rows:
        # the class is truncated at 2^(n_max + 1) atoms
        maps = DiagMaps(k=int(row[0]), alpha=alpha, dim=2 ** (3 + 1))
        assert float(row[3]) == decoder_lipschitz(maps)
        assert float(row[3]) >= float(row[4])
    results = (out / "report.md").read_text().split("## results")[1]
    flags = [line for line in results.splitlines() if line.startswith("- ")]
    assert len(flags) == 3
    assert all(line.endswith(": true") for line in flags)


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


@pytest.mark.parametrize("ini,message", [
    ("eps = 0", "eps must be positive and finite, got 0.0"),
    ("eps = -0.01", "eps must be positive and finite, got -0.01"),
    ("eps = nan", "eps must be positive and finite, got nan"),
    ("min_levels = 0", "min_levels must be at least 1, got 0"),
    ("eps = x", "eps = 'x' is not a number"),
    ("min_levels = 2.0", "min_levels = '2.0' is not an integer"),
])
def test_bad_interp_setting_fails_in_one_line(tmp_path, ini, message):
    out = tmp_path / "interp"
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(f"[interp]\n{ini}\n")
    with pytest.raises(SystemExit) as exit_info:
        main(["interp", "--config", str(cfg), "--out", str(out)])
    assert str(exit_info.value) == f"bad [interp] setting: {message}"
    assert not list(out.glob("*.csv"))


@pytest.mark.parametrize("command", ["entropy", "stable-width", "carl"])
def test_empty_n_range_fails_in_one_line(tmp_path, command):
    # with n_min > n_max, stable-width and carl stopped on an empty result
    # list and entropy reported an empty table as a check that holds
    out = tmp_path / command
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(f"[{command}]\ncount = 60\nambient_dim = 8\n"
                   "n_min = 3\nn_max = 2\n")
    with pytest.raises(SystemExit) as exit_info:
        main([command, "--config", str(cfg), "--out", str(out)])
    assert str(exit_info.value) == (f"bad [{command}] setting: n_min = 3 "
                                    "exceeds n_max = 2, so no level would run")
    assert not list(out.iterdir())


@pytest.mark.parametrize("command,key", [("cs", "p_values"),
                                         ("carl", "eps_values")])
@pytest.mark.parametrize("text,refusal", [
    pytest.param("", "lists no value", id=""),
    pytest.param(",", "lists no value", id=","),
    pytest.param("1.0, ,2.0", "has token ' ', not a number", id="1.0, ,2.0"),
    pytest.param("1.0,x", "has token 'x', not a number", id="1.0,x"),
])
def test_empty_list_setting_fails_in_one_line(tmp_path, command, key, text,
                                              refusal):
    # an empty list wrote an empty operator_bounds.csv or carl_cover.csv,
    # and cs reported its bounds as holding in 0 of 0 rows; a blank or
    # non-number token stopped with a ValueError traceback
    out = tmp_path / command
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(f"[{command}]\n{key} = {text}\n")
    with pytest.raises(SystemExit) as exit_info:
        main([command, "--config", str(cfg), "--out", str(out)])
    assert str(exit_info.value) == (f"bad [{command}] setting: {key} = "
                                    f"{text!r} {refusal}")
    assert not list(out.iterdir())
    # a trailing comma is an empty token, and empty tokens are skipped
    assert _float_list(command, key, "1.0,2.0,") == [1.0, 2.0]


@pytest.mark.parametrize("text,p", [("1.0,3.0", "3.0"), ("0.5", "0.5"),
                                    ("1.5,nan", "nan")])
def test_cs_p_outside_1_2_fails_before_any_matrix(tmp_path, monkeypatch,
                                                   text, p):
    # op_norm_bracket raised a ValueError traceback on such a p
    import widthlab.cli as cli

    def no_draw(*args, **kwargs):
        raise AssertionError("a matrix was drawn")

    monkeypatch.setattr(cli, "gaussian_matrix", no_draw)
    out = tmp_path / "cs"
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(f"[cs]\np_values = {text}\n")
    with pytest.raises(SystemExit) as exit_info:
        main(["cs", "--config", str(cfg), "--out", str(out)])
    assert str(exit_info.value) == (f"bad [cs] setting: p_values = {text!r} "
                                    f"lists {p}, outside [1, 2]")
    assert not list(out.iterdir())


@pytest.mark.parametrize("command,ini,flags,refusal", [
    # int() or float() of the value raised a ValueError traceback
    pytest.param("cs", "n = 4.5", [], "n = '4.5' is not an integer", id="cs-n"),
    pytest.param("stable-width", "q = one", [], "q = 'one' is not a number",
                 id="stable-width-q"),
    pytest.param("carl", "seed = 1e3", [], "seed = '1e3' is not an integer",
                 id="carl-seed"),
    # the generator's ValueError ended in a traceback
    pytest.param("stable-width", "count = -5", [],
                 "kq class with ambient_dim = 32, q = 1.0, count = -5, "
                 "seed = 0: count must be positive", id="stable-width-count"),
    pytest.param("entropy", "class = sparse\nk = 40", [],
                 "sparse class with ambient_dim = 32, k = 40, count = 2000, "
                 "seed = 0: need 1 <= k <= N, got k=40, N=32",
                 id="entropy-sparse-k"),
    pytest.param("carl", "class = diag\nr = -1", [],
                 "diag class with ambient_dim = 64, r = -1: r must be "
                 "positive, got -1.0", id="carl-diag-r"),
    # the seed tree, the pair audit or the sensing matrix raised
    pytest.param("cs", "", ["--seed", "-1"], "seed = '-1' is below 0",
                 id="cs-seed-flag"),
    pytest.param("interp", "seed = -3", [], "seed = '-3' is below 0",
                 id="interp-seed"),
    pytest.param("stable-width", "pair_samples = 0", [],
                 "pair_samples = '0' is below 1", id="stable-width-pair-samples"),
    pytest.param("carl", "pair_samples = -2", [],
                 "pair_samples = '-2' is below 1", id="carl-pair-samples"),
    pytest.param("cs", "n = 0", [], "n = '0' is below 1", id="cs-n-zero"),
    # counterexample has no seed, which the headers would echo as applied
    pytest.param("counterexample", "", ["--seed", "5"],
                 "--seed 5, but counterexample draws no random number",
                 id="counterexample-seed-flag"),
])
def test_bad_setting_fails_in_one_line_naming_section_and_key(
        tmp_path, command, ini, flags, refusal):
    out = tmp_path / command
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(f"[{command}]\n{ini}\n")
    with pytest.raises(SystemExit) as exit_info:
        main([command, "--config", str(cfg), "--out", str(out), *flags])
    assert str(exit_info.value) == f"bad [{command}] setting: {refusal}"
    assert not out.exists() or not list(out.iterdir())


def test_numeric_settings_resolve_as_written(tmp_path):
    # an integer where the default is a float parses as one, and every
    # value is echoed as it was written
    cfg = tmp_path / "cfg.ini"
    cfg.write_text("[stable-width]\nq = 2\nr = inf\ncount = 0300\n")
    resolved = resolve_config("stable-width", str(cfg), None)
    assert (resolved["q"], resolved["r"], resolved["count"]) == ("2", "inf", "0300")


def entropy_report_lines(tmp_path, ini):
    out = run_cli(tmp_path, "entropy", ini)
    return (out / "report.md").read_text().split("## results")[1].splitlines()


WITNESS_LINE = "- packing witnesses of 2^n + 1 points at least 2 lower apart: "


def test_entropy_checks_each_lower_end_against_its_witness(tmp_path):
    # at defaults, and on a cloud of 60 points whose n = 6 witness is empty
    assert WITNESS_LINE + "true" in entropy_report_lines(tmp_path, "")
    small = "[entropy]\ncount = 60\nn_max = 6\n"
    lines = entropy_report_lines(tmp_path, small)
    assert "- n=6: lower 0.0, upper 0.0" in lines
    assert WITNESS_LINE + "true" in lines


def test_entropy_witness_check_reads_false_on_a_close_pair(tmp_path, monkeypatch):
    import dataclasses

    import widthlab.cli as cli

    def close_pair(K, n):
        bracket = entropy_bracket(K, n)
        if n != 3:
            return bracket
        # two witness points half a lower end apart
        w = bracket.packing_witness.copy()
        step = w[1] - w[0]
        w[1] = w[0] + step * (0.5 * bracket.lower / np.linalg.norm(step))
        return dataclasses.replace(bracket, packing_witness=w)

    monkeypatch.setattr(cli, "entropy_bracket", close_pair)
    assert WITNESS_LINE + "false" in entropy_report_lines(tmp_path, SMALL_ENTROPY)


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
    K = _build_class(cfg, "stable-width")
    assert K.count == int(cfg["count"])
    assert K.points.shape[1] == int(cfg["ambient_dim"])


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


def run_python(args: list[str], timeout: int,
               cwd: Path | None = None) -> subprocess.CompletedProcess:
    """Run the interpreter on args, importing the widthlab these tests import."""
    src = str(Path(widthlab.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          timeout=timeout, cwd=cwd,
                          env={**os.environ, "PYTHONPATH": path})


PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_PROPERTY = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_a_property_that_fails(x):
    assert x < 0


def test_a_test_after_it():
    pass
"""


def test_a_failing_property_does_not_end_the_session(tmp_path):
    # hypothesis's failure report raised a DeprecationWarning inside a
    # pytest hook, and with every warning an error the session stopped
    # there in an INTERNALERROR, before the tests after it ran
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY)
    run = run_python(["-m", "pytest", "-c", str(PYPROJECT), "--rootdir",
                      str(tmp_path), "-p", "no:cacheprovider", "-q",
                      "test_property.py"], timeout=120, cwd=tmp_path)
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout


def mesh_cap() -> str:
    """Code that gives a child interpreter this process's interp mesh cap.

    The conftest fixture lowers interp._MAX_VERTICES for the tests; a child
    that runs the pipeline starts from the default without this.
    """
    return ("import widthlab.interp\n"
            f"widthlab.interp._MAX_VERTICES = {widthlab.interp._MAX_VERTICES}\n")


def test_reproduce_script_advertises_usage():
    proc = run_python([str(SCRIPT), "--help"], timeout=60)
    assert proc.returncode == 0
    assert "--quick" in proc.stdout


def test_reproduce_script_passes_the_seed_only_where_one_is_drawn(monkeypatch):
    script = runpy.run_path(str(SCRIPT))
    calls = []
    monkeypatch.setitem(script["run"].__globals__, "main",
                        lambda argv: calls.append(argv) or 0)
    assert script["run"](["--seed", "7", "--out", "runs"]) == 0
    assert [argv[0] for argv in calls] == list(COMMANDS)
    seeded = [argv[0] for argv in calls if argv[-2:] == ["--seed", "7"]]
    assert seeded == [name for name in COMMANDS if name != "counterexample"]


def test_reproduce_script_quick_run_writes_every_artifact(tmp_path):
    code = (mesh_cap() + "import runpy, sys\n"
            f"sys.argv = {[str(SCRIPT), '--quick', '--out', str(tmp_path)]!r}\n"
            f"runpy.run_path({str(SCRIPT)!r}, run_name='__main__')\n")
    proc = run_python(["-c", code], timeout=300)
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


def test_interp_pipeline_smooths_without_scipy():
    # smoothing runs on numpy.fft alone; scipy.fft costs about 0.3 s of
    # imports, scipy.signal about a second, more than the small run below
    # the run below needs a 17-vertex mesh; a tight cap stops it early when
    # a broken smoothing step keeps its audits from passing
    code = (
        "import sys, numpy as np\n"
        "import widthlab.interp as wi\n"
        "wi._MAX_VERTICES = 1024\n"
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
        "print(max(taps),\n"
        "      sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    proc = run_python(["-c", code], timeout=60)
    assert proc.returncode == 0, proc.stderr
    taps, scipy_modules = proc.stdout.split(maxsplit=1)
    assert int(taps) > 1  # a stencil was applied
    assert scipy_modules.strip() == "[]"


def scipy_modules_after(tmp_path, command, *args):
    """The scipy modules loaded once a subcommand ran at the quick settings."""
    cfg = tmp_path / "quick.ini"
    cfg.write_text(runpy.run_path(str(SCRIPT))["QUICK_OVERLAY"])
    out = tmp_path / command
    argv = [command, *args, "--config", str(cfg), "--out", str(out)]
    code = (mesh_cap() + "import sys\n"
            "from widthlab.cli import main\n"
            f"main({argv!r})\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    proc = run_python(["-c", code], timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert (out / "report.md").is_file()
    return ast.literal_eval(proc.stdout.splitlines()[-1])


def test_interp_command_loads_no_scipy(tmp_path):
    # the whole subcommand, at the reproduce script's quick settings
    assert scipy_modules_after(tmp_path, "interp") == []
    assert (tmp_path / "interp" / "interp_levels.csv").is_file()


@pytest.mark.parametrize("command, args", [
    ("entropy", []),
    ("counterexample", []),
    ("stable-width", ["--threads", "1"]),
    ("carl", ["--threads", "1"]),
    ("cs", []),
])
def test_subcommand_loads_no_scipy(tmp_path, command, args):
    # nets and extend measure pair distances, and l1_decode solves, on
    # numpy alone
    assert scipy_modules_after(tmp_path, command, *args) == []


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


# exported names that no module of the package uses yet, each with the
# consumer it waits for
UNCONSUMED_EXPORTS = {
    # perfbench/spans.py times it as a span target
    "greedy_packing",
    # carl's two-sided cover check is to call it (ROADMAP item 4)
    "build_net",
}


def test_every_exported_function_has_a_consumer_in_the_package():
    # every __all__ entry counts: functions, classes, exceptions, constants
    import ast
    import importlib

    used = set()
    for path in Path(widthlab.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            # a load, so that a constant's own assignment is no use of it
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    unused = []
    for name in ("spaces", "nets", "extend", "stablewidth", "counterexample",
                 "csrecovery", "interp", "demos"):
        module = importlib.import_module(f"widthlab.{name}")
        unused += [attr for attr in module.__all__
                   if attr not in used and attr not in UNCONSUMED_EXPORTS]
    assert not unused
    # an exemption whose name gained a consumer is dropped
    assert not UNCONSUMED_EXPORTS & used


# private names of one widthlab module that another one reads, by reader;
# a new reach into another module's internals is a change to this table
PRIVATE_REACHES = {
    "extend": {"spaces._UNDERFLOW", "spaces._screen_margin"},
    "nets": {"spaces._distances"},
    "csrecovery": {"spaces._BLOCK_ELEMENTS"},
    "interp": {"spaces._BLOCK_ELEMENTS"},
}


def test_private_names_read_across_modules_are_the_listed_ones():
    # `from .m import _x` and reads of `m._x`, m another widthlab module
    package = Path(widthlab.__file__).parent
    modules = {path.stem for path in package.glob("*.py")}

    def private(name):
        return name.startswith("_") and not name.startswith("__")

    reaches = {}
    for path in package.glob("*.py"):
        found = set()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                found |= {f"{node.module}.{alias.name}" for alias in node.names
                          if node.module in modules and private(alias.name)}
            elif (isinstance(node, ast.Attribute)
                  and isinstance(node.ctx, ast.Load)
                  and isinstance(node.value, ast.Name)
                  and node.value.id in modules and private(node.attr)):
                found.add(f"{node.value.id}.{node.attr}")
        found = {name for name in found if name.split(".")[0] != path.stem}
        if found:
            reaches[path.stem] = found
    assert reaches == PRIVATE_REACHES
