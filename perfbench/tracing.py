"""Span tracing of the package's layers, installed from outside the package.

Each target is a public function of one layer (module), named by module
and attribute path, and is resolved at install time. A target that no
longer exists (a module or attribute removed by a refactor) is reported
as absent instead of failing the run. Functions that other modules of the
package imported by name are replaced under every such alias, so calls
between layers are traced too.

Spans (name, start, end, parent, run id) are recorded only inside an
operation opened with Tracer.operation(); each operation's spans are kept
in memory until it ends and are then folded into per-target totals: calls,
self time (the span's duration less the time covered by its child spans)
and counts computed from argument shapes or results.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
import types
from collections import defaultdict
from contextlib import contextmanager

PACKAGE = "tiebreak"
ROOT_SPAN = "bench.op"

INFEASIBLE_REASONS = (
    ("no treated subjects", "no_treated"),
    ("no control subjects", "no_control"),
    ("feature Gram matrix is ill-conditioned", "gram_ill_conditioned"),
    ("design is ill-conditioned", "design_ill_conditioned"),
    ("singular normal equations", "singular"),
)
INFEASIBLE_OTHER = "other"


def _z_gram_rhs_counts(args, kwargs, result):
    # n (d^2 + 2d) multiply-adds: the z-weighted Gram block and both RHS.
    n, d = args[0].shape
    return {"flop_computed": 2 * n * (d * d + 2 * d),
            "bytes_computed": 8 * n * (d + 2)}


def _weighted_gram_counts(args, kwargs, result):
    n, d = args[0].shape
    return {"flop_computed": 2 * n * d * d + n * d,
            "bytes_computed": 8 * n * (d + 1)}


def _region_weights_counts(args, kwargs, result):
    return {"bytes_computed": 16 * args[0].shape[0]}


def _from_csv_counts(args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs["path"]
    return {"bytes_read": os.path.getsize(path)}


def _evaluate_design_counts(args, kwargs, result):
    if result.feasible:
        return {}
    for prefix, key in INFEASIBLE_REASONS:
        if str(result.reason).startswith(prefix):
            return {"infeasible." + key: 1}
    return {"infeasible." + INFEASIBLE_OTHER: 1}


def _design_search_counts(args, kwargs, result):
    thetas = args[1] if len(args) > 1 else kwargs["thetas"]
    deltas = args[2] if len(args) > 2 else kwargs["deltas"]
    ps = args[3] if len(args) > 3 else kwargs.get("ps", (0.5,))
    return {"candidates": len(thetas) * len(deltas) * len(ps),
            "feasible": len(result)}


def _run_simulation_counts(args, kwargs, result):
    return {"reps": result.config.reps, "reps_used": result.reps_used,
            "degenerate_reps": result.degenerate}


# (layer, attribute path, counts from (args, kwargs, result) or None)
TARGETS = (
    ("mc", "run_simulation", _run_simulation_counts),
    ("mc", "ols_fit", None),
    ("mc", "sample_assignment", None),
    ("mc", "simulate_outcomes", None),
    ("mc", "closed_form_reference", None),
    ("designs", "treatment_probability", None),
    ("designs", "SlidingScale.__call__", None),
    ("_kernels", "z_gram_rhs", _z_gram_rhs_counts),
    ("_kernels", "region_weights", _region_weights_counts),
    ("_kernels", "weighted_gram", _weighted_gram_counts),
    ("general", "FeatureMatrix.from_csv", _from_csv_counts),
    ("general", "expected_weights", None),
    ("general", "assemble_blocks", None),
    ("general", "evaluate_design", _evaluate_design_counts),
    ("general", "DesignEvaluation.criterion_value", None),
    ("general", "design_search", _design_search_counts),
    ("moments", "sliding_moments", None),
    ("moments", "interval_moments", None),
    ("quadrature", "integrate", None),
    ("twoline", "covariance_from_moments", None),
    ("twoline", "covariance_uniform", None),
    ("twoline", "covariance_gaussian", None),
    ("twoline", "var_gain_at_x", None),
    ("twoline", "noncentral_covariance", None),
    ("quadratic", "covariance_quadratic", None),
    ("sliding", "full_covariance_sliding", None),
    ("sliding", "symmetrize", None),
)


def metric_name(layer: str, attr: str) -> str:
    """Metric prefix of a target; metric names must start with a letter."""
    return f"{layer.lstrip('_')}.{attr}"


TARGET_NAMES = tuple(metric_name(layer, attr) for layer, attr, _ in TARGETS)


def _resolve(layer: str, attr: str):
    """(owner, attribute name, raw attribute) of a target, or None if gone."""
    try:
        module = importlib.import_module(f"{PACKAGE}.{layer}")
    except ImportError:
        return None
    owner = module
    if layer == "_kernels":
        # The kernels are called through the namespace of the path in use.
        resolver = getattr(module, "kernels", None)
        if resolver is None:
            return None
        owner = resolver()
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if isinstance(owner, type):
        raw = next((vars(k)[name] for k in owner.__mro__ if name in vars(k)), None)
    else:
        raw = getattr(owner, name, None)
    if raw is None or not (callable(raw) or isinstance(raw, classmethod)):
        return None
    return owner, name, raw


class Tracer:
    """Installs span-recording wrappers and aggregates what they record."""

    def __init__(self):
        self.absent: list[str] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.span_total = 0
        self._spans: list = []
        self._stack: list[int] = []
        self._run_id = None
        self._runs = 0
        self._patches: list = []

    # -- installation -------------------------------------------------
    def install(self) -> None:
        for layer, attr, count in TARGETS:
            name = metric_name(layer, attr)
            found = _resolve(layer, attr)
            if found is None:
                self.absent.append(name)
                continue
            owner, attr_name, raw = found
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(name, raw.__func__, count))
            else:
                wrapped = self._wrap(name, raw, count)
            self._patch(owner, attr_name, wrapped)
            if isinstance(owner, types.ModuleType):
                self._patch_aliases(raw, wrapped, owner)

    def uninstall(self) -> None:
        for owner, attr_name, original, had_own in reversed(self._patches):
            if had_own:
                setattr(owner, attr_name, original)
            else:
                delattr(owner, attr_name)
        self._patches.clear()

    def _patch(self, owner, attr_name, wrapped) -> None:
        own = vars(owner) if hasattr(owner, "__dict__") else {}
        had_own = attr_name in own
        self._patches.append((owner, attr_name, own.get(attr_name), had_own))
        setattr(owner, attr_name, wrapped)

    def _patch_aliases(self, raw, wrapped, done) -> None:
        for mod_name, module in list(sys.modules.items()):
            if module is done or not (mod_name == PACKAGE
                                      or mod_name.startswith(PACKAGE + ".")):
                continue
            for key, val in list(vars(module).items()):
                if val is raw:
                    self._patch(module, key, wrapped)

    # -- recording ----------------------------------------------------
    def _wrap(self, name, fn, count):
        tracer = self

        def traced(*args, **kwargs):
            if tracer._run_id is None:
                return fn(*args, **kwargs)
            spans = tracer._spans
            stack = tracer._stack
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, tracer._run_id)
            if count is not None:
                for key, val in count(args, kwargs, result).items():
                    tracer.counts[f"{name}.{key}"] += val
            return result

        return functools.wraps(fn)(traced)

    @contextmanager
    def operation(self):
        """Root span of one benchmark operation; its spans share a run id."""
        self._runs += 1
        run_id = self._runs
        self._spans = [None]
        self._stack = [0]
        self._run_id = run_id
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._spans[0] = (ROOT_SPAN, start, end, None, run_id)
            self._run_id = None
            self._fold()

    def _fold(self) -> None:
        spans = self._spans
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans[1:]:
            child[parent] += end - start
        for idx, (name, start, end, _, _) in enumerate(spans):
            self.calls[name] += 1
            self.self_s[name] += (end - start) - child[idx]
        self.span_total += len(spans)
        self._spans = []
        self._stack = []
