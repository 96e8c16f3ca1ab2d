"""Experiment drivers: deterministic CSV + report output per subcommand.

Each subcommand reads defaults, overlays the matching section of an INI
config file, then applies command-line overrides; the resolved settings
are embedded as comment headers in every CSV so runs are reproducible from
their outputs alone.  Floats are written with repr so reruns are
byte-identical.  Work items get their seeds from a spawned SeedSequence
before any worker starts, so --threads never changes the numbers.
"""

from __future__ import annotations

import argparse
import configparser
import functools
import math
from pathlib import Path

import numpy as np

from . import __version__
from .counterexample import counterexample_report
from .csrecovery import (
    L1ConvergenceError,
    build_nonlinear_pair,
    gaussian_matrix,
    instance_optimality_trials,
    l1_decode,
    operator_norm_bound_check,
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
    "counterexample": {"r": "2.0", "k_max": "10", "n_max": "6", "seed": "0"},
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
    Workers are spawned, not forked, so they inherit no thread or lock
    state from the caller.  Each imports widthlab afresh, a few tenths of
    a second, so no more are started than there are items, and a single
    item runs here.
    """
    workers = min(threads, len(items))
    if workers <= 1:
        return [fn(item) for item in items]
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers,
                             mp_context=multiprocessing.get_context("spawn")) as pool:
        return list(pool.map(fn, items))


def _build_class(cfg: dict[str, str]) -> ModelClassSurrogate:
    kind = cfg["class"]
    seed = int(cfg["seed"])
    dim = int(cfg["ambient_dim"])
    if kind == "kq":
        return generate_Kq(dim, float(cfg["q"]), int(cfg["count"]), seed)
    if kind == "diag":
        return generate_diag_class(AlphaSequence(float(cfg["r"])), dim)
    if kind == "sparse":
        return generate_sparse_class(dim, int(cfg["k"]), int(cfg["count"]), seed)
    raise SystemExit(f"unknown class kind {kind!r} (want kq, diag or sparse)")


def _entropy_row(K: ModelClassSurrogate, seed: int, n: int) -> tuple:
    bracket = entropy_bracket(K, n)
    return (n, bracket.lower, bracket.upper, len(bracket.cover_centers), seed)


def cmd_entropy(cfg: dict[str, str], out: Path, threads: int) -> None:
    K = _build_class(cfg)
    n_values = list(range(int(cfg["n_min"]), int(cfg["n_max"]) + 1))
    rows = _parallel(functools.partial(_entropy_row, K, int(cfg["seed"])),
                     n_values, threads)
    write_csv(out / "entropy.csv", "entropy brackets", cfg,
              ["n", "lower", "upper", "cover_size", "seed"], rows)
    lines = [f"- n={r[0]}: lower {_fmt(r[1])}, upper {_fmt(r[2])}" for r in rows]
    ok = all(r[1] <= r[2] + 1e-12 for r in rows)
    lines.append(f"- bracket ordering holds: {_fmt(ok)}")
    _write_report(out, "entropy", cfg, lines)


def _width_pair(K: ModelClassSurrogate, pair_samples: int,
                item: tuple[int, int]) -> tuple:
    n, task_seed = item
    pair = build_stable_pair(K, n, seed=task_seed)
    rep = evaluate_width(pair, K, pair_samples=pair_samples, seed=task_seed)
    return pair, rep


def _width_series(K: ModelClassSurrogate, cfg: dict[str, str],
                  threads: int) -> list[tuple]:
    """Build and evaluate one stable pair per n; returns (pair, report) rows."""
    n_values = list(range(int(cfg["n_min"]), int(cfg["n_max"]) + 1))
    seeds = _task_seeds(int(cfg["seed"]), len(n_values))
    task = functools.partial(_width_pair, K, int(cfg["pair_samples"]))
    return _parallel(task, list(zip(n_values, seeds)), threads)


def cmd_stable_width(cfg: dict[str, str], out: Path, threads: int) -> None:
    K = _build_class(cfg)
    results = _width_series(K, cfg, threads)
    rows = [
        (rep.n, rep.sup_error, rep.three_eps_upper, rep.lip_a, rep.lip_M,
         len(pair.net.centers), rep.seed)
        for pair, rep in results
    ]
    write_csv(out / "stable_width.csv", "stable encoder/decoder widths", cfg,
              ["n", "sup_error", "three_eps_upper", "lip_a", "lip_M",
               "cover_size", "seed"], rows)
    base_rows = [(rep.n, hilbert_linear_baseline(K, rep.n)) for _, rep in results]
    write_csv(out / "linear_baseline.csv", "best linear subspace error", cfg,
              ["n", "linear_error"], base_rows)

    probes = int(cfg["probes"])
    probe_rows = []
    rng = np.random.default_rng(int(cfg["seed"]) + 1)
    pair, rep = results[-1]
    for i in range(probes):
        f = K.points[int(rng.integers(K.count))]
        eta = float(rng.uniform(0.05, 0.5))
        direction = rng.standard_normal(f.shape)
        direction /= np.linalg.norm(direction)
        g = f + direction * eta * rng.uniform()
        record = stability_probe(pair, f, g, eta=eta, e_class=rep.sup_error,
                                 seed=int(rng.integers(2**31)))
        probe_rows.append((i, record.eta, record.lhs, record.rhs, record.passed))
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
        (row.k, row.sup_error, row.sqrt2_alpha_k, row.lip_Mk_lower,
         row.lip_Mk_predicted)
        for row in report.rows
    ]
    write_csv(out / "counterexample_maps.csv", "diagonal coder family", cfg,
              ["k", "sup_error", "sqrt2_alpha_k", "lip_Mk_lower",
               "lip_Mk_predicted"], rows)
    write_csv(out / "counterexample_entropy.csv", "diagonal entropy floor", cfg,
              ["n", "entropy_lower", "alpha_half"], report.entropy_rows)
    lines = [
        f"- errors below sqrt(2) alpha_k envelope: "
        f"{_fmt(report.all_errors_below_envelope)}",
        f"- entropy lower bounds above alpha_(2^n)/2: "
        f"{_fmt(report.entropy_lower_holds)}",
        f"- decoder constants increase with k: "
        f"{_fmt(report.lip_lower_increasing)}",
    ]
    _write_report(out, "counterexample", cfg, lines)


def _bound_rows(n: int, N: int, p_values: list[float],
                item: tuple[int, int]) -> list[tuple]:
    idx, matrix_seed = item
    Phi = gaussian_matrix(n, N, seed=matrix_seed)
    out_rows = []
    for p in p_values:
        rep = operator_norm_bound_check(Phi, p, seed=matrix_seed)
        out_rows.append((idx, p, rep.delta, rep.bracket.lower,
                         rep.bracket.upper, rep.upper_bound,
                         rep.derived_lower, rep.inverted_lower,
                         rep.upper_holds, rep.lower_holds,
                         rep.inverted_variant_holds))
    return out_rows


def cmd_cs(cfg: dict[str, str], out: Path, threads: int) -> None:
    n, N, k = int(cfg["n"]), int(cfg["ambient_dim"]), int(cfg["k"])
    p_values = [float(tok) for tok in cfg["p_values"].split(",") if tok]
    matrices = int(cfg["matrices"])
    seeds = _task_seeds(int(cfg["seed"]), matrices)
    bound_task = functools.partial(_bound_rows, n, N, p_values)
    bound_rows = [row for rows in
                  _parallel(bound_task, list(enumerate(seeds)), threads)
                  for row in rows]
    write_csv(out / "operator_bounds.csv", "sensing operator norm bounds", cfg,
              ["matrix", "p", "delta", "norm_lower", "norm_upper",
               "upper_bound", "derived_lower", "inverted_lower",
               "upper_holds", "lower_holds", "inverted_variant_holds"],
              bound_rows)

    trials = int(cfg["trials"])
    rng = np.random.default_rng(int(cfg["seed"]) + 1)
    Phi = gaussian_matrix(n, N, seed=int(cfg["seed"]))
    recovery_rows = []
    successes = 0
    capped = 0
    for t in range(trials):
        support = rng.choice(N, size=k, replace=False)
        x0 = np.zeros(N)
        x0[support] = rng.standard_normal(k)
        x0 /= np.linalg.norm(x0)
        try:
            xhat = l1_decode(Phi, Phi.matrix @ x0)
        except L1ConvergenceError as exc:
            # capped solves still yield a feasible iterate; score it as-is
            # and count it in the report
            xhat = exc.iterate
            capped += 1
        err = float(np.linalg.norm(xhat - x0))
        ok = err <= 1e-5
        successes += ok
        recovery_rows.append((t, err, ok))
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
        f"{sum(r[8] and r[9] for r in bound_rows)}/{len(bound_rows)}",
        f"- planted recovery: {successes}/{trials} "
        f"(capped solves scored as-is: {capped})",
        f"- delta_2k, sampled lower estimate over {rip.supports_checked} "
        f"supports: {_fmt(rip.delta)}",
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
    budget = pipeline_budget(cfg["map"], float(cfg["eps"]),
                             min_levels=int(cfg["min_levels"]))
    result = finite_rank_pipeline(
        budget.demo.fn, budget.S_points, gamma=budget.gamma,
        delta=budget.delta, eps=budget.eps, seed=int(cfg["seed"]),
        initial_subdivisions=budget.initial_subdivisions,
        min_levels=budget.min_levels,
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
    ]
    _write_report(out, "interp", cfg, lines)


def cmd_carl(cfg: dict[str, str], out: Path, threads: int) -> None:
    K = _build_class(cfg)
    reports = [rep for _, rep in _width_series(K, cfg, threads)]
    delta0 = float(np.max(np.linalg.norm(K.points, axis=1)))
    gamma = max(rep.lip_M for rep in reports)
    inputs = carl_inputs_from_width_series(reports, delta0=delta0, gamma=gamma,
                                           r=float(cfg["r"]))
    entropy_series = [entropy_bracket(K, rep.n) for rep in reports]
    rate = carl_rate_check(inputs, entropy_series)
    write_csv(out / "carl_rate.csv", "entropy decay vs width decay", cfg,
              ["n", "entropy_lower", "rate_bound"], rate.rows)

    R = 2.0 * delta0
    bound_rows = []
    for eps in (float(tok) for tok in cfg["eps_values"].split(",") if tok):
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
    _write_report(out, "carl", cfg, lines)


COMMANDS = {
    "entropy": cmd_entropy,
    "stable-width": cmd_stable_width,
    "counterexample": cmd_counterexample,
    "cs": cmd_cs,
    "interp": cmd_interp,
    "carl": cmd_carl,
}


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
        cfg["seed"] = str(seed)
    return cfg


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
                         help="worker processes; never changes the numbers")
    args = parser.parse_args(argv)

    cfg = resolve_config(args.command, args.config, args.seed)
    out = Path(args.out) if args.out else Path("runs") / args.command
    out.mkdir(parents=True, exist_ok=True)
    COMMANDS[args.command](cfg, out, max(1, args.threads))
    print(f"{args.command}: wrote {out}/")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
