"""Spans around widthlab's public functions, recorded from outside the program.

A span is (id, parent id, layer name, start, end, attributes).  Spans are
kept in memory and written out by the caller when the run ends.  The parent
of a span is the innermost open span of the same thread; spans opened on a
worker thread with nothing open there hang off the root span (the CLI
subcommand), so self time never subtracts work done on another thread.

Each wrapped function is patched at every attribute of every loaded widthlab
module that refers to it, because ``widthlab.cli`` and several modules import
names directly (``from .nets import entropy_bracket``).
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import sys
import threading
import time
from pathlib import Path


def _rows(X) -> int:
    shape = getattr(X, "shape", None)
    if shape is None:
        return len(X)
    return 1 if len(shape) == 1 else int(shape[0])


def _kirszbraun(args, kwargs, result, exc):
    map_ = args[0] if args else kwargs["map_"]
    queries = _rows(args[1] if len(args) > 1 else kwargs["X"])
    # the constraint set grows by at most one ball per query
    return {"queries": queries, "constraints": map_.count + queries}


def _audit(args, kwargs, result, exc):
    return {"pairs": len(args[1] if len(args) > 1 else kwargs["pairs"])}


def _distances(args, kwargs, result, exc):
    count = _rows(args[0] if args else kwargs["points"])
    return {"bytes": 8 * count * count}


def _l1(args, kwargs, result, exc):
    return {"capped": int(type(exc).__name__ == "L1ConvergenceError")}


def _rip(args, kwargs, result, exc):
    return {"supports": result.supports_checked if exc is None else 0}


def _pipeline(args, kwargs, result, exc):
    return {"vertices": result.interpolant.mesh.vertex_count if exc is None else 0}


def _points(args, kwargs, result, exc):
    return {"points": _rows(args[1] if len(args) > 1 else kwargs["X"])}


def _map_points(args, kwargs, result, exc):
    return {"points": _rows(args[0] if args else kwargs["X"])}


def _csv(args, kwargs, result, exc):
    path = Path(args[0] if args else kwargs["path"])
    return {"bytes": path.stat().st_size if exc is None else 0}


# (module, function, span name, attribute hook); a hook maps
# (args, kwargs, result, exception) to the span's attributes
TARGETS: list[tuple[str, str, str, object]] = [
    ("widthlab.spaces", "pairwise_distances", "spaces.pairwise_distances", _distances),
    ("widthlab.spaces", "generate_Kq", "spaces.generate_Kq", None),
    ("widthlab.spaces", "generate_sparse_class", "spaces.generate_sparse_class", None),
    ("widthlab.nets", "greedy_cover", "nets.greedy_cover", None),
    ("widthlab.nets", "greedy_packing", "nets.greedy_packing", None),
    ("widthlab.nets", "entropy_bracket", "nets.entropy_bracket", None),
    ("widthlab.extend", "kirszbraun_eval_batch", "extend.kirszbraun_eval_batch", _kirszbraun),
    ("widthlab.extend", "lipschitz_audit", "extend.lipschitz_audit", _audit),
    ("widthlab.extend", "sample_pairs", "extend.sample_pairs", None),
    ("widthlab.stablewidth", "build_stable_pair", "stablewidth.build_stable_pair", None),
    ("widthlab.stablewidth", "jl_project", "stablewidth.jl_project", None),
    ("widthlab.stablewidth", "evaluate_width", "stablewidth.evaluate_width", None),
    ("widthlab.stablewidth", "hilbert_linear_baseline",
     "stablewidth.hilbert_linear_baseline", None),
    ("widthlab.stablewidth", "stability_probe", "stablewidth.stability_probe", None),
    ("widthlab.csrecovery", "l1_decode", "csrecovery.l1_decode", _l1),
    ("widthlab.csrecovery", "op_norm_bracket", "csrecovery.op_norm_bracket", None),
    ("widthlab.csrecovery", "rip_check", "csrecovery.rip_check", _rip),
    ("widthlab.csrecovery", "build_nonlinear_pair", "csrecovery.build_nonlinear_pair", None),
    ("widthlab.csrecovery", "instance_optimality_trials",
     "csrecovery.instance_optimality_trials", None),
    ("widthlab.interp", "finite_rank_pipeline", "interp.finite_rank_pipeline", _pipeline),
    ("widthlab.interp", "pl_eval_batch", "interp.pl_eval_batch", _points),
    ("widthlab.interp", "cutoff_eval", "interp.cutoff_eval", _points),
    ("widthlab.cli", "write_csv", "cli.write_csv", _csv),
]


class Recorder:
    """Collects spans from any thread; ``root`` is the id of the open root span."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.root: int | None = None
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, hook=None):
        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else self.root
            with self._lock:
                sid = next(self._ids)
            stack.append(sid)
            result, error = None, None
            start = time.monotonic()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                end = time.monotonic()
                stack.pop()
                attrs = hook(args, kwargs, result, error) if hook else None
                self.spans.append((sid, parent, name, start, end, attrs))

        return span

    def root_span(self, name: str, fn):
        """Wrap the CLI subcommand: the span every other span descends from."""

        @functools.wraps(fn)
        def root(*args, **kwargs):
            with self._lock:
                self.root = next(self._ids)
            start = time.monotonic()
            try:
                return fn(*args, **kwargs)
            finally:
                self.spans.append((self.root, None, name, start, time.monotonic(), None))
                self.root = None

        return root


def install(recorder: Recorder) -> None:
    """Patch every target at every widthlab module attribute that names it."""
    import widthlab.demos
    import widthlab.interp

    modules = [m for key, m in list(sys.modules.items())
               if key == "widthlab" or key.startswith("widthlab.")]
    for module_name, attr, name, hook in TARGETS:
        home = sys.modules[module_name]
        original = getattr(home, attr)
        wrapped = recorder.wrap(name, original, hook)
        setattr(home, attr, wrapped)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapped)
    # the smoothing step imports fftconvolve from scipy.signal when it runs;
    # patch it there on first use, so scipy.signal is still imported inside
    # the subcommand, as it is untraced
    smooth = widthlab.interp._smooth_grid

    @functools.wraps(smooth)
    def smooth_grid(*args, **kwargs):
        import scipy.signal

        if not hasattr(scipy.signal.fftconvolve, "__wrapped__"):
            scipy.signal.fftconvolve = recorder.wrap(
                "interp.fftconvolve", scipy.signal.fftconvolve)
        return smooth(*args, **kwargs)

    widthlab.interp._smooth_grid = smooth_grid
    # demo maps are reached through the DEMOS table, not a module function
    for key, demo in list(widthlab.demos.DEMOS.items()):
        widthlab.demos.DEMOS[key] = dataclasses.replace(
            demo, fn=recorder.wrap("demos.map", demo.fn, _map_points))
