"""Experiment drivers: deterministic CSV + report output per subcommand.

Each subcommand resolves its settings (defaults, then the matching section
of an INI config file, then command-line overrides), calls the library and
writes files; every random draw happens in the library, from the seeds it
is given.  A bad setting (a number that does not parse as its default's
kind, an integer below its least value in _LEAST, an empty level range or
list, or a value that the class generator or the interp budget refuses)
stops the run in one line naming its section and key, before any file is
written; so does --seed on counterexample, which has no seed.  The
resolved settings are embedded as comment headers in every CSV so runs
are reproducible from their outputs alone.  Floats are written with repr
so reruns are byte-identical.  Only the width series of stable-width and
carl runs on worker processes (--threads), forked from the running CLI on
Linux and spawned elsewhere; its items get their seeds from
SeedSequence.spawn before any worker starts, so --threads never changes
the numbers.  The other subcommands run in the calling process: their
items cost less than the pool that would run them (see _parallel).
"""

from __future__ import annotations

import argparse
import configparser
import functools
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .counterexample import counterexample_report
from .csrecovery import (
    build_nonlinear_pair,
    gaussian_matrix,
    instance_optimality_trials,
    operator_norm_bound_check,
    planted_recovery_trials,
    rip_check,
)
from .demos import DEMOS, pipeline_budget
from .interp import finite_rank_pipeline
from .nets import entropy_bracket
from .spaces import (
    AlphaSequence,
    ModelClassSurrogate,
    generate_Kq,
    generate_diag_class,
    generate_sparse_class,
    pairwise_distances,
)
from .stablewidth import (
    build_stable_pair,
    carl_cover_bound,
    carl_inputs_from_width_series,
    carl_rate_check,
    evaluate_width,
    hilbert_linear_baseline,
    stability_probe,
)

DEFAULTS: dict[str, dict[str, str]] = {
    "entropy": {
        "class": "kq", "q": "1.0", "ambient_dim": "32", "count": "2000",
        "k": "4", "r": "2.0", "n_min": "1", "n_max": "6", "seed": "0",
    },
    "stable-width": {
        "class": "kq", "q": "1.0", "ambient_dim": "32", "count": "2000",
        "k": "4", "r": "2.0", "n_min": "2", "n_max": "5",
        "pair_samples": "10000", "seed": "0", "probes": "8",
    },
    "counterexample": {"r": "2.0", "k_max": "10", "n_max": "6"},
    "cs": {
        "n": "40", "ambient_dim": "128", "k": "4",
        "trials": "100", "net_count": "400", "p_values": "1.0,1.5,2.0",
        "matrices": "20", "seed": "0",
    },
    "interp": {
        "map": "scalar-wave", "eps": "0.01", "min_levels": "4", "seed": "0",
    },
    "carl": {
        "class": "kq", "q": "1.0", "ambient_dim": "64", "count": "1500",
        "k": "4", "r": "1.0", "n_min": "1", "n_max": "4", "pair_samples": "4000",
        "eps_values": "0.5,0.25,0.125", "seed": "0",
    },
}

def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_csv(path: Path, title: str, config: dict[str, str],
              columns: list[str], rows) -> None:
    lines = [f"# widthlab {__version__} :: {title}"]
    for key in sorted(config):
        lines.append(f"# {key} = {config[key]}")
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


def _write_report(out: Path, section: str, config: dict[str, str],
                  lines: list[str]) -> None:
    body = [f"# {section} run", "", f"widthlab {__version__}", "", "## settings", ""]
    body += [f"- {key} = {config[key]}" for key in sorted(config)]
    body += ["", "## results", ""]
    body += lines
    (out / "report.md").write_text("\n".join(body) + "\n")


def _task_seeds(seed: int, count: int) -> list[int]:
    return [int(child.generate_state(1)[0])
            for child in np.random.SeedSequence(seed).spawn(count)]


def _parallel(fn, items, threads: int) -> list:
    """[fn(item) for item in items], on up to `threads` worker processes.

    fn, the items and the results cross a process boundary, so they must
    pickle: fn is a module-level function, or a functools.partial of one.
    On Linux the workers are forked, so each begins as a copy of this
    process, with numpy, widthlab and the class cloud already in memory:
    two workers mapping four trivial items cost about 0.02 s of CPU,
    where spawned workers, which import numpy and widthlab afresh, cost
    0.54-0.79 s.  Other platforms spawn, as multiprocessing does by
    default there: Windows has no fork, and macOS system frameworks are
    unsafe after one.

    A forked child inherits its parent's threads and locks in whatever
    state they were in, which is safe here because:
    - only the CLI's width series calls this private helper, and the CLI
      runs no Python threads of its own;
    - with a fork context, ProcessPoolExecutor (3.11) forks every worker
      before it starts its manager thread;
    - numpy's OpenBLAS pool is fork-safe through its own pthread_atfork
      handlers;
    - fork starts no resource-tracker process.
    CPython 3.12 and later emit a DeprecationWarning when a process with
    several OS threads (an OpenBLAS pool) forks; default filters hide it.
    forkserver is not used: its server is no child of this process, so
    the workers' CPU time would drop out of RUSAGE_CHILDREN.

    No more workers are started than there are items, and a single item,
    or a single thread, runs here.  entropy and cs keep their items in
    one process: on two forked workers their defaults took 0.24-0.26 s
    and 0.41-0.46 s, against 0.18-0.21 s and 0.36-0.40 s in one process
    (whole process, single-threaded BLAS, 2-core host).
    """
    workers = min(threads, len(items))
    if workers <= 1:
        return [fn(item) for item in items]
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    context = multiprocessing.get_context(
        "fork" if sys.platform == "linux" else "spawn")
    with ProcessPoolExecutor(max_workers=workers, mp_context=context) as pool:
        return list(pool.map(fn, items))


# the settings each class kind's generator reads
_CLASS_KEYS = {
    "kq": ("ambient_dim", "q", "count", "seed"),
    "diag": ("ambient_dim", "r"),
    "sparse": ("ambient_dim", "k", "count", "seed"),
}


def _build_class(cfg: dict[str, str], section: str) -> ModelClassSurrogate:
    """The section's class; settings its generator refuses stop in one line."""
    kind = cfg["class"]
    if kind not in _CLASS_KEYS:
        raise SystemExit(f"unknown class kind {kind!r} (want kq, diag or sparse)")
    seed = int(cfg["seed"])
    dim = int(cfg["ambient_dim"])
    try:
        if kind == "kq":
            return generate_Kq(dim, float(cfg["q"]), int(cfg["count"]), seed)
        if kind == "diag":
            return generate_diag_class(AlphaSequence(float(cfg["r"])), dim)
        return generate_sparse_class(dim, int(cfg["k"]), int(cfg["count"]), seed)
    except ValueError as exc:
        settings = ", ".join(f"{key} = {cfg[key]}" for key in _CLASS_KEYS[kind])
        raise SystemExit(f"bad [{section}] setting: {kind} class with "
                         f"{settings}: {exc}") from None


def _n_range(cfg: dict[str, str], section: str) -> range:
    """The levels n_min..n_max of a section; an empty range is refused."""
    n_min, n_max = int(cfg["n_min"]), int(cfg["n_max"])
    if n_min > n_max:
        raise SystemExit(f"bad [{section}] setting: n_min = {n_min} exceeds "
                         f"n_max = {n_max}, so no level would run")
    return range(n_min, n_max + 1)


def _float_list(section: str, key: str, text: str) -> list[float]:
    """A setting's comma-separated numbers; a bad token or none is refused."""
    values = []
    for tok in filter(None, text.split(",")):
        try:
            values.append(float(tok))
        except ValueError:
            raise SystemExit(f"bad [{section}] setting: {key} = {text!r} has "
                             f"token {tok!r}, not a number") from None
    if not values:
        raise SystemExit(f"bad [{section}] setting: {key} = {text!r} lists "
                         "no value")
    return values


def cmd_entropy(cfg: dict[str, str], out: Path, threads: int) -> None:
    n_values = _n_range(cfg, "entropy")
    K = _build_class(cfg, "entropy")
    seed = int(cfg["seed"])
    brackets = [entropy_bracket(K, n) for n in n_values]
    rows = [(b.n, b.lower, b.upper, b.cover.count, seed) for b in brackets]
    write_csv(out / "entropy.csv", "entropy brackets", cfg,
              ["n", "lower", "upper", "cover_size", "seed"], rows)
    lines = [f"- n={r[0]}: lower {_fmt(r[1])}, upper {_fmt(r[2])}" for r in rows]
    # each lower end rests on its witness, 2^n + 1 cloud points at least
    # 2 lower apart; an empty witness, from a cloud too small, holds
    ok = True
    for b in brackets:
        gaps = pairwise_distances(b.packing_witness)
        ok &= bool(np.all(gaps[np.triu_indices(len(gaps), 1)] >= 2.0 * b.lower))
    lines.append(f"- packing witnesses of 2^n + 1 points at least 2 lower "
                 f"apart: {_fmt(ok)}")
    _write_report(out, "entropy", cfg, lines)


def _width_pair(K: ModelClassSurrogate, pair_samples: int,
                item: tuple[int, int]) -> tuple:
    n, task_seed = item
    pair = build_stable_pair(K, n, seed=task_seed)
    rep = evaluate_width(pair, K, pair_samples=pair_samples, seed=task_seed)
    return pair, rep


def _width_series(K: ModelClassSurrogate, cfg: dict[str, str], section: str,
                  threads: int) -> list[tuple]:
    """Build and evaluate one stable pair per n; returns (pair, report) rows."""
    n_values = _n_range(cfg, section)
    seeds = _task_seeds(int(cfg["seed"]), len(n_values))
    task = functools.partial(_width_pair, K, int(cfg["pair_samples"]))
    return _parallel(task, list(zip(n_values, seeds)), threads)


def cmd_stable_width(cfg: dict[str, str], out: Path, threads: int) -> None:
    K = _build_class(cfg, "stable-width")
    results = _width_series(K, cfg, "stable-width", threads)
    rows = [
        (rep.n, rep.sup_error, rep.three_eps_upper, rep.lip_a, rep.lip_M,
         pair.net.count, rep.seed)
        for pair, rep in results
    ]
    write_csv(out / "stable_width.csv", "stable encoder/decoder widths", cfg,
              ["n", "sup_error", "three_eps_upper", "lip_a", "lip_M",
               "cover_size", "seed"], rows)
    base_rows = [(rep.n, hilbert_linear_baseline(K, rep.n)) for _, rep in results]
    write_csv(out / "linear_baseline.csv", "best linear subspace error", cfg,
              ["n", "linear_error"], base_rows)

    probes = int(cfg["probes"])
    rng = np.random.default_rng(int(cfg["seed"]) + 1)
    pair, rep = results[-1]
    records = [stability_probe(pair, K, rep.sup_error, rng) for _ in range(probes)]
    probe_rows = [(i, r.eta, r.lhs, r.rhs, r.passed) for i, r in enumerate(records)]
    write_csv(out / "stability_probes.csv", "perturbed decoding probes", cfg,
              ["probe", "eta", "lhs", "rhs", "passed"], probe_rows)

    lines = [
        f"- n={row[0]}: roundtrip sup {_fmt(row[1])} vs 3x entropy upper "
        f"{_fmt(row[2])}, encoder {_fmt(row[3])}, decoder {_fmt(row[4])}"
        for row in rows
    ]
    lines.append(f"- probes passed: {sum(r[4] for r in probe_rows)}/{probes}")
    _write_report(out, "stable-width", cfg, lines)


def cmd_counterexample(cfg: dict[str, str], out: Path, threads: int) -> None:
    alpha = AlphaSequence(float(cfg["r"]))
    report = counterexample_report(alpha, int(cfg["k_max"]), int(cfg["n_max"]))
    rows = [
        (row.k, row.sup_error, row.sqrt2_alpha_k, row.lip_Mk,
         row.lip_Mk_predicted)
        for row in report.rows
    ]
    write_csv(out / "counterexample_maps.csv", "diagonal coder family", cfg,
              ["k", "sup_error", "sqrt2_alpha_k", "lip_Mk",
               "lip_Mk_predicted"], rows)
    write_csv(out / "counterexample_entropy.csv", "diagonal entropy floor", cfg,
              ["n", "entropy_lower", "alpha_half"], report.entropy_rows)
    lines = [
        f"- errors below sqrt(2) alpha_k envelope: "
        f"{_fmt(report.all_errors_below_envelope)}",
        f"- entropy lower bounds above alpha_(2^n)/2: "
        f"{_fmt(report.entropy_lower_holds)}",
        f"- decoder constants increase with k: "
        f"{_fmt(report.lip_increasing)}",
    ]
    _write_report(out, "counterexample", cfg, lines)


def cmd_cs(cfg: dict[str, str], out: Path, threads: int) -> None:
    n, N, k = int(cfg["n"]), int(cfg["ambient_dim"]), int(cfg["k"])
    p_values = _float_list("cs", "p_values", cfg["p_values"])
    if bad := [p for p in p_values if not 1.0 <= p <= 2.0]:
        raise SystemExit(f"bad [cs] setting: p_values = {cfg['p_values']!r} "
                         f"lists {bad[0]!r}, outside [1, 2]")
    seeds = _task_seeds(int(cfg["seed"]), int(cfg["matrices"]))
    bound_rows = []
    for idx, matrix_seed in enumerate(seeds):
        Phi = gaussian_matrix(n, N, seed=matrix_seed)
        for p in p_values:
            rep = operator_norm_bound_check(Phi, p)
            bound_rows.append((idx, p, rep.delta, rep.bracket.lower,
                               rep.bracket.upper, rep.upper_bound,
                               rep.derived_lower, rep.upper_holds,
                               rep.lower_holds))
    write_csv(out / "operator_bounds.csv", "sensing operator norm bounds", cfg,
              ["matrix", "p", "delta", "norm_lower", "norm_upper",
               "upper_bound", "derived_lower", "upper_holds", "lower_holds"],
              bound_rows)

    trials = int(cfg["trials"])
    Phi = gaussian_matrix(n, N, seed=int(cfg["seed"]))
    errors, capped = planted_recovery_trials(Phi, k, trials, int(cfg["seed"]) + 1)
    recovery_rows = [(t, err, err <= 1e-5) for t, err in enumerate(errors)]
    write_csv(out / "recovery_trials.csv", "planted l1 recovery", cfg,
              ["trial", "error", "recovered"], recovery_rows)

    net = generate_sparse_class(N, k, int(cfg["net_count"]),
                                seed=int(cfg["seed"]) + 2)
    pair = build_nonlinear_pair(Phi, net)
    report = instance_optimality_trials(pair, k, trials=trials,
                                        seed=int(cfg["seed"]) + 3)
    io_rows = [
        (t, trial.sigma, trial.net_distance, trial.error, trial.bound,
         trial.passed)
        for t, trial in enumerate(report.trials)
    ]
    write_csv(out / "instance_optimality.csv", "dense-input recovery bound", cfg,
              ["trial", "sigma_k", "net_distance", "error", "bound", "passed"],
              io_rows)
    rip = rip_check(Phi, 2 * k, seed=int(cfg["seed"]))
    lines = [
        f"- operator bound rows holding (derived form): "
        f"{sum(r[7] and r[8] for r in bound_rows)}/{len(bound_rows)}",
        f"- planted recovery: {sum(r[2] for r in recovery_rows)}/{trials} "
        f"(capped solves scored as-is: {capped})",
        f"- delta_2k, {'exact' if rip.exhaustive else 'sampled lower estimate'}"
        f" over {rip.supports_checked} supports: {_fmt(rip.delta)}",
        f"- budgets from net pair ratios: gamma_a {_fmt(pair.gamma_a)}, "
        f"gamma_M {_fmt(pair.gamma_M)}",
        f"- instance optimality: "
        f"{sum(r.passed for r in report.trials)}/{trials} within bound, "
        f"C = {_fmt(report.C)}",
    ]
    _write_report(out, "cs", cfg, lines)


def cmd_interp(cfg: dict[str, str], out: Path, threads: int) -> None:
    if cfg["map"] not in DEMOS:
        raise SystemExit(f"unknown map {cfg['map']!r} (want {', '.join(DEMOS)})")
    eps, min_levels = float(cfg["eps"]), int(cfg["min_levels"])
    try:
        budget = pipeline_budget(cfg["map"], eps, min_levels=min_levels)
    except ValueError as exc:  # a setting the budget cannot plan with
        raise SystemExit(f"bad [interp] setting: {exc}") from None
    result = finite_rank_pipeline(
        DEMOS[cfg["map"]].fn, budget.S_points, gamma=budget.gamma,
        delta=budget.delta, eps=eps, seed=int(cfg["seed"]),
        initial_subdivisions=budget.initial_subdivisions,
        min_levels=min_levels,
    )
    rows = [
        (i, lvl.subdivisions, lvl.h, lvl.sup_err, lvl.lip_excess,
         lvl.sup_err_smooth, lvl.lip_excess_smooth)
        for i, lvl in enumerate(result.levels)
    ]
    write_csv(out / "interp_levels.csv", "mesh halving audit trail", cfg,
              ["level", "subdivisions", "h", "sup_err", "lip_excess",
               "sup_err_smooth", "lip_excess_smooth"], rows)
    lines = [
        f"- gamma {_fmt(result.gamma)}, delta {_fmt(result.delta)}, "
        f"kernel scale 1/{result.m}, cube half-width {_fmt(result.D)}",
        f"- rank bound {result.rank}",
        f"- sup deviation on S: {_fmt(result.sup_dev_on_S)} (target "
        f"{_fmt(result.eps)})",
        f"- audited constant {_fmt(result.lip_measured)} vs gamma "
        f"{_fmt(result.gamma)}",
        "- the constant is exact: the largest Jacobian norm over the mesh's "
        "simplices, on the closed cube",
    ]
    _write_report(out, "interp", cfg, lines)


def cmd_carl(cfg: dict[str, str], out: Path, threads: int) -> None:
    eps_values = _float_list("carl", "eps_values", cfg["eps_values"])
    K = _build_class(cfg, "carl")
    results = _width_series(K, cfg, "carl", threads)
    reports = [rep for _, rep in results]
    delta0 = float(np.max(np.linalg.norm(K.points, axis=1)))
    # A needs an upper bound on the decoder constant; an audit is a lower one
    gamma = max(max(pair.gamma_M, rep.lip_M) for pair, rep in results)
    inputs = carl_inputs_from_width_series(reports, delta0=delta0, gamma=gamma,
                                           r=float(cfg["r"]))
    entropy_series = [entropy_bracket(K, rep.n) for rep in reports]
    rate = carl_rate_check(inputs, entropy_series)
    write_csv(out / "carl_rate.csv", "entropy decay vs width decay", cfg,
              ["n", "entropy_lower", "rate_bound"], rate.rows)

    R = 2.0 * delta0
    bound_rows = []
    for eps in eps_values:
        bound = carl_cover_bound(inputs, eps, R)
        bound_rows.append((bound.eps, bound.R, bound.A, bound.L,
                           bound.exponent, bound.log2_bound))
    write_csv(out / "carl_cover.csv", "covering growth bound", cfg,
              ["eps", "R", "A", "L", "exponent", "log2_bound"], bound_rows)
    lines = [
        f"- Lambda = {_fmt(rate.Lambda)}, empirical C = {_fmt(rate.C)} "
        f"(finite: {_fmt(math.isfinite(rate.C))})",
        f"- base A = {_fmt(inputs.A)} at gamma = {_fmt(gamma)}",
    ]
    if cfg["class"] == "diag":
        lines.append(f"- r = {cfg['r']} is both the rate exponent and the "
                     "diag class's alpha exponent, alpha_j = (1 + log2 j)^(-r/2)")
    _write_report(out, "carl", cfg, lines)


COMMANDS = {
    "entropy": cmd_entropy,
    "stable-width": cmd_stable_width,
    "counterexample": cmd_counterexample,
    "cs": cmd_cs,
    "interp": cmd_interp,
    "carl": cmd_carl,
}


# the least value of an integer setting, in every section that has it; n is
# the row count of [cs]'s sensing matrices
_LEAST = {"seed": 0, "pair_samples": 1, "n": 1}


def resolve_config(section: str, config_path: str | None,
                   seed: int | None) -> dict[str, str]:
    cfg = dict(DEFAULTS[section])
    if config_path:
        parser = configparser.ConfigParser()
        if not parser.read(config_path):
            raise SystemExit(f"config file not found: {config_path}")
        if parser.has_section(section):
            for key, value in parser.items(section):
                if key not in cfg:
                    raise SystemExit(f"unknown setting {key!r} in [{section}]")
                if "\n" in value:
                    raise SystemExit(
                        f"setting {key!r} in [{section}] spans several lines")
                cfg[key] = value
    if seed is not None:
        if "seed" not in cfg:
            raise SystemExit(f"bad [{section}] setting: --seed {seed}, but "
                             f"{section} draws no random number")
        cfg["seed"] = str(seed)
    for key, default in DEFAULTS[section].items():
        # a numeric setting parses as the kind of its default
        for kind, noun in ((int, "an integer"), (float, "a number")):
            if _parses(kind, default):
                if not _parses(kind, cfg[key]):
                    raise SystemExit(f"bad [{section}] setting: {key} = "
                                     f"{cfg[key]!r} is not {noun}")
                break
    for key, least in _LEAST.items():
        if key in cfg and int(cfg[key]) < least:
            raise SystemExit(f"bad [{section}] setting: {key} = {cfg[key]!r} "
                             f"is below {least}")
    return cfg


def _parses(kind, text: str) -> bool:
    try:
        kind(text)
    except ValueError:
        return False
    return True


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="widthlab",
        description="stable nonlinear approximation experiments",
    )
    parser.add_argument("--version", action="version",
                        version=f"widthlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", default=None,
                         help="INI file; section [%s] applies" % name)
        cmd.add_argument("--seed", type=int, default=None,
                         help="override the section seed")
        cmd.add_argument("--out", default=None,
                         help="output directory (default runs/<command>)")
        cmd.add_argument("--threads", type=int, default=1,
                         help="worker processes for stable-width and carl; "
                              "never changes the numbers")
    args = parser.parse_args(argv)

    cfg = resolve_config(args.command, args.config, args.seed)
    out = Path(args.out) if args.out else Path("runs") / args.command
    out.mkdir(parents=True, exist_ok=True)
    COMMANDS[args.command](cfg, out, max(1, args.threads))
    print(f"{args.command}: wrote {out}/")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
