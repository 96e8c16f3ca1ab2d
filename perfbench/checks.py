"""Output checks for the benchmark workloads.

Every check reads the artifacts one widthlab run wrote (CSV tables and
``report.md``) and tests them against properties the method must have, or
against values recomputed here apart from the program: a rank-n residual,
column norms and spectral norms of the sensing matrices.  Inputs are regenerated from the config each CSV embeds in its
header, with widthlab's own generators.  Nothing is compared with a stored
copy of an earlier output.

Each check returns one operation per checked certificate row, as
``(label, problems)``; an operation failed when its problem list is not empty.
"""

from __future__ import annotations

import math
import re
from pathlib import Path

import numpy as np

Op = tuple[str, list[str]]

# the acceptance suite's bounds on audited encoder/decoder constants
LIP_A_LOOSE = 1.05
LIP_M_LOOSE = 2.1
# the certified budgets themselves, to 1e-9 relative
GAMMA_A, GAMMA_M, BUDGET_REL = 1.0, 2.0, 1e-9
# the one failure the benchmark keeps: on the stable-width input the audited
# decoder constant exceeds its budget at n=2 (slack in kirszbraun_eval_batch)
KEPT_FAILURE = "exact budget"
RECOVERY_ERROR = 1e-5
# planted l1 recovery must succeed in at least 95 of every 100 trials
RECOVERY_SHARE = 0.95


def read_csv(path: Path) -> tuple[dict[str, str], list[dict[str, str]]]:
    """Embedded config (``# key = value`` headers) and the rows of a widthlab CSV."""
    config: dict[str, str] = {}
    columns: list[str] | None = None
    rows: list[dict[str, str]] = []
    for line in Path(path).read_text().splitlines():
        if line.startswith("#"):
            key, sep, value = line[1:].partition(" = ")
            if sep:
                config[key.strip()] = value.strip()
            continue
        cells = line.split(",")
        if columns is None:
            columns = cells
        else:
            rows.append(dict(zip(columns, cells)))
    return config, rows


def _flag(value: str) -> bool:
    return value == "true"


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def task_seeds(seed: int, count: int) -> list[int]:
    """Per-task seeds as the CLI derives them: one spawned child per task."""
    return [int(child.generate_state(1)[0])
            for child in np.random.SeedSequence(seed).spawn(count)]


def _kq_points(config: dict[str, str]) -> np.ndarray:
    from widthlab.spaces import generate_Kq

    if config["class"] != "kq":
        raise ValueError(f"checks expect the kq class, got {config['class']!r}")
    return generate_Kq(int(config["ambient_dim"]), float(config["q"]),
                       int(config["count"]), int(config["seed"])).points


def linear_residuals(points: np.ndarray, ns: list[int]) -> dict[int, float]:
    """Sup l_2 distance from the cloud to its best rank-n subspace.

    Uses the eigenvectors of the uncentered Gram matrix, not an SVD of the
    cloud, so it is computed apart from ``hilbert_linear_baseline``.
    """
    evals, evecs = np.linalg.eigh(points.T @ points)
    order = np.argsort(evals)[::-1]
    out = {}
    for n in ns:
        V = evecs[:, order[:n]]
        resid = points - (points @ V) @ V.T
        out[n] = float(np.max(np.linalg.norm(resid, axis=1)))
    return out


def check_stable_width(out: Path) -> list[Op]:
    config, rows = read_csv(out / "stable_width.csv")
    _, base_rows = read_csv(out / "linear_baseline.csv")
    _, probe_rows = read_csv(out / "stability_probes.csv")
    ns = list(range(int(config["n_min"]), int(config["n_max"]) + 1))
    own = linear_residuals(_kq_points(config), ns)
    baseline = {int(r["n"]): float(r["linear_error"]) for r in base_rows}
    ops: list[Op] = []
    if [int(r["n"]) for r in rows] != ns or sorted(baseline) != ns:
        ops.append(("rows", [f"expected one row per n in {ns}"]))
    previous = math.inf
    for r in rows:
        n = int(r["n"])
        sup, upper = float(r["sup_error"]), float(r["three_eps_upper"])
        lip_a, lip_M = float(r["lip_a"]), float(r["lip_M"])
        problems = []
        if int(r["cover_size"]) != 2**n:
            problems.append(f"cover_size {r['cover_size']} != 2^{n}")
        if not sup <= upper:
            problems.append(f"sup_error {sup} > three_eps_upper {upper}")
        if not (lip_a <= LIP_A_LOOSE and lip_M <= LIP_M_LOOSE):
            problems.append(f"lip_a {lip_a} / lip_M {lip_M} past "
                            f"{LIP_A_LOOSE} / {LIP_M_LOOSE}")
        if not (lip_a <= GAMMA_A * (1 + BUDGET_REL)
                and lip_M <= GAMMA_M * (1 + BUDGET_REL)):
            problems.append(f"{KEPT_FAILURE}: lip_a {lip_a!r} > {GAMMA_A} or "
                            f"lip_M {lip_M!r} > {GAMMA_M}")
        linear = baseline.get(n, math.nan)
        if not linear <= previous:
            problems.append(f"linear baseline rises at n={n}: {linear}")
        if not _close(linear, own.get(n, math.nan), 1e-8):
            problems.append(f"linear baseline {linear} != own residual {own.get(n)}")
        previous = linear
        ops.append((f"n={n}", problems))
    if len(probe_rows) != int(config["probes"]):
        ops.append(("probes", [f"{len(probe_rows)} probe rows, "
                               f"config asks {config['probes']}"]))
    for r in probe_rows:
        lhs, rhs = float(r["lhs"]), float(r["rhs"])
        problems = []
        if not (lhs <= rhs and _flag(r["passed"])):
            problems.append(f"probe lhs {lhs} > rhs {rhs} (passed={r['passed']})")
        ops.append((f"probe {r['probe']}", problems))
    return ops


def check_cs(out: Path) -> list[Op]:
    from widthlab.csrecovery import gaussian_matrix

    config, bound_rows = read_csv(out / "operator_bounds.csv")
    _, recovery_rows = read_csv(out / "recovery_trials.csv")
    _, io_rows = read_csv(out / "instance_optimality.csv")
    n, N = int(config["n"]), int(config["ambient_dim"])
    p_values = [float(tok) for tok in config["p_values"].split(",") if tok]
    seeds = task_seeds(int(config["seed"]), int(config["matrices"]))
    mats = [gaussian_matrix(n, N, seed=s).matrix for s in seeds]
    ops: list[Op] = []
    if len(bound_rows) != len(mats) * len(p_values):
        ops.append(("bound rows", [f"{len(bound_rows)} rows for "
                                   f"{len(mats)} matrices x {len(p_values)} p"]))
    for r in bound_rows:
        idx, p = int(r["matrix"]), float(r["p"])
        lo, hi = float(r["norm_lower"]), float(r["norm_upper"])
        delta = float(r["delta"])
        upper_bound, derived = float(r["upper_bound"]), float(r["derived_lower"])
        cols = np.linalg.norm(mats[idx], axis=0)
        scale = N ** (1.0 - 1.0 / p)
        problems = []
        if not lo <= hi:
            problems.append(f"norm_lower {lo} > norm_upper {hi}")
        if not (lo <= upper_bound * (1 + 1e-9) and _flag(r["upper_holds"])):
            problems.append(f"upper inequality fails: {lo} > {upper_bound}")
        if not (derived <= hi * (1 + 1e-9) and _flag(r["lower_holds"])):
            problems.append(f"lower inequality fails: {derived} > {hi}")
        if not _close(delta, float(np.max(np.abs(cols - 1.0))), 1e-12):
            problems.append(f"delta {delta} != own column-norm deviation")
        if not (_close(upper_bound, (1 + delta) * scale, 1e-12)
                and _close(derived, (1 - delta) * scale / math.sqrt(n), 1e-12)):
            problems.append("bounds differ from (1 +- delta) N^(1-1/p) forms")
        if p == 1.0 and not (lo == hi and _close(lo, float(np.max(cols)), 1e-12)):
            problems.append(f"p=1 bracket [{lo}, {hi}] != max column norm "
                            f"{float(np.max(cols))}")
        # a power-iteration estimate never exceeds the spectral norm; the
        # upper endpoint can fall short of it on some matrices (see README)
        if p == 2.0 and not lo <= float(np.linalg.norm(mats[idx], 2)) * (1 + 1e-12):
            problems.append(f"p=2 lower endpoint {lo} above the spectral norm")
        ops.append((f"matrix {idx} p={p}", problems))
    trials = int(config["trials"])
    recovered = 0
    for r in recovery_rows:
        err = float(r["error"])
        recovered += err <= RECOVERY_ERROR
        problems = []
        if not (math.isfinite(err) and _flag(r["recovered"]) == (err <= RECOVERY_ERROR)):
            problems.append(f"error {err} disagrees with recovered={r['recovered']}")
        ops.append((f"planted {r['trial']}", problems))
    summary = []
    if len(recovery_rows) != trials or len(io_rows) != trials:
        summary.append(f"expected {trials} planted and {trials} dense trials")
    if recovered < RECOVERY_SHARE * trials:
        summary.append(f"planted recovery {recovered}/{trials} below "
                       f"{RECOVERY_SHARE:.0%}")
    ops.append(("planted recovery rate", summary))
    for r in io_rows:
        err, bound = float(r["error"]), float(r["bound"])
        problems = []
        if not (err <= bound and _flag(r["passed"])):
            problems.append(f"trial error {err} > bound {bound} (passed={r['passed']})")
        ops.append((f"dense {r['trial']}", problems))
    return ops


_REPORT = {
    "gamma": r"- gamma (\S+), delta (\S+), kernel scale 1/(\d+), cube half-width (\S+)",
    "rank": r"- rank bound (\d+)",
    "dev": r"- sup deviation on S: (\S+) \(target (\S+)\)",
    "lip": r"- audited constant (\S+) vs gamma (\S+)",
}


def _slope(h: list[float], values: list[float]) -> float:
    return float(np.polyfit(np.log(h), np.log(values), 1)[0])


def check_interp(out: Path) -> list[Op]:
    from widthlab.demos import DEMOS

    config, rows = read_csv(out / "interp_levels.csv")
    report = (out / "report.md").read_text()
    found = {}
    for key, pattern in _REPORT.items():
        match = re.search(pattern, report)
        if match is None:
            return [("report", [f"report.md lacks the {key} line"])]
        found[key] = match.groups()
    gamma, delta, _, D = (float(v) for v in found["gamma"])
    rank = int(found["rank"][0])
    dev, eps = (float(v) for v in found["dev"])
    lip, lip_gamma = (float(v) for v in found["lip"])
    min_levels = int(config["min_levels"])
    dim = DEMOS[config["map"]].domain_dim
    ops: list[Op] = []
    first = int(rows[0]["subdivisions"]) if rows else 0
    for i, r in enumerate(rows):
        sub, h = int(r["subdivisions"]), float(r["h"])
        sup_err, excess = float(r["sup_err"]), float(r["lip_excess"])
        met = sup_err <= eps / 2.0 and excess <= delta / 2.0
        problems = []
        if sub != first * 2**i or not _close(h, 2.0 * D / sub, 1e-12):
            problems.append(f"level {i}: subdivisions {sub}, h {h} break the "
                            f"halving schedule")
        if i == len(rows) - 1:
            if not (met and len(rows) >= min_levels):
                problems.append(f"last level: sup_err {sup_err} vs eps/2 "
                                f"{eps / 2}, excess {excess} vs delta/2 {delta / 2}")
        elif met and i + 1 >= min_levels:
            problems.append(f"level {i} met both targets but halving went on")
        ops.append((f"level {i}", problems))
    problems = []
    if not dev <= eps:
        problems.append(f"sup_dev_on_S {dev} > eps {eps}")
    if not (lip <= gamma and lip_gamma == gamma):
        problems.append(f"audited constant {lip} > gamma {gamma}")
    tail = rows[-4:]
    if len(tail) == 4:
        h = [float(r["h"]) for r in tail]
        sup_slope = _slope(h, [float(r["sup_err_smooth"]) for r in tail])
        excess_slope = _slope(h, [float(r["lip_excess_smooth"]) for r in tail])
        if not (abs(sup_slope - 2.0) <= 0.3 and abs(excess_slope - 1.0) <= 0.3):
            problems.append(f"smooth slopes {sup_slope:.3f} / {excess_slope:.3f} "
                            f"not 2 / 1 within 0.3")
    else:
        problems.append(f"{len(rows)} levels; slopes need 4")
    final = int(rows[-1]["subdivisions"]) if rows else 0
    if rank != (final + 1) ** dim + 1:
        problems.append(f"rank bound {rank} != ({final} + 1)^{dim} + 1")
    ops.append(("final audit", problems))
    return ops
