"""The benchmark's workloads.

Each workload makes its inputs from the benchmark seed, runs one pass of
operations through the package's public functions, and checks the
pass's outputs against oracles.py. A pass is the unit a run repeats: the
sum of its operation times is `wall_s`, and its work items (replicates,
candidates or closed-form evaluations) give `items_per_s`. Every pass
gets inputs and seeds of its own, so no result can be reused across
operations.

Why these four:
- mc-crit07: the seven Monte Carlo configurations of acceptance
  criterion 07. Per-replicate draws and Gram/RHS assembly dominate, so a
  draw, bandwidth or assembly change shows here.
- mc-small-n: n = 400 with 10 000 replicates, where per-replicate fixed
  cost (the small solve, generator set-up) dominates and draws are small.
- search-large-n: `tiebreak search` in process on a 200 000 x 4 table;
  region weights and the weighted Gram dominate each candidate.
- analytic-many-small: many small closed-form and sliding-scale calls
  plus a search on a 500 x 3 table, where per-candidate cond, solve and
  inverse dominate. The only workload using moments, quadrature,
  twoline, quadratic and sliding.
"""

from __future__ import annotations

import dataclasses
import math
import os
import time
from contextlib import nullcontext
from functools import partial

import numpy as np

import oracles

CHECK_INDEX = 1 << 20  # pass index of the untimed check pass


def derive_seed(*keys: int) -> int:
    """A 63-bit seed derived from the benchmark seed and an operation path."""
    state = np.random.SeedSequence(list(keys)).generate_state(2, np.uint32)
    return (int(state[0]) << 31) ^ int(state[1])


def per(count: float, seconds: float) -> float:
    """count / seconds, or 0 when nothing was timed (every operation failed)."""
    return count / seconds if seconds > 0 else 0.0


def rng_for(*keys: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(list(keys)))


def unit_rows(rng: np.random.Generator, count: int, dim: int) -> np.ndarray:
    rows = rng.standard_normal((count, dim))
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def write_csv(path: str, values: np.ndarray, names) -> None:
    """Write a feature table that parses back to exactly these values."""
    row = ",".join(["%.17g"] * values.shape[1]) + "\n"
    with open(path, "w") as handle:
        handle.write(",".join(names) + "\n")
        for start in range(0, values.shape[0], 4096):
            block = values[start:start + 4096]
            handle.write((row * block.shape[0]) % tuple(block.ravel()))


@dataclasses.dataclass
class PassResult:
    """What one pass did and returned; latencies are per operation or per
    evaluation. raw_wall_s is the sum of the pass's operation times.

    Times are raw until scale() turns them into nominal-speed times.
    """

    items: int = 0
    item_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    latencies: list = dataclasses.field(default_factory=list)
    op_s: list = dataclasses.field(default_factory=list)
    outputs: list = dataclasses.field(default_factory=list)
    errors: list = dataclasses.field(default_factory=list)
    raw_wall_s: float = 0.0
    wall_s: float = 0.0
    factor: float = 1.0

    def timed(self, operation, fn, *args, **kwargs):
        """Call fn inside operation() and time it. Returns its result, or
        the exception it raised (also recorded in errors), and the elapsed
        time."""
        with operation():
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:  # a failed operation; the run goes on
                out = exc
            elapsed = time.perf_counter() - start
        if isinstance(out, Exception):
            self.errors.append(f"{getattr(fn, '__name__', fn)}: {out!r}")
        self.raw_wall_s += elapsed
        return out, elapsed

    def scale(self, factor: float) -> None:
        """Scale every time by the pass's speed factor."""
        self.factor = factor
        self.wall_s = self.raw_wall_s * factor
        self.item_s *= factor
        self.latencies = [t * factor for t in self.latencies]
        self.op_s = [t * factor for t in self.op_s]


class Workload:
    name = ""
    item = ""
    # Parts of the speed kernel (speed.PARTS) that resemble this workload.
    speed_parts = ("bulk", "small")

    def __init__(self, tb, seed: int, workdir: str, code: int):
        self.tb = tb
        self.seed = seed
        self.workdir = workdir
        self.code = code

    def check(self) -> list:
        """Checks run once, untimed, before the timed section: one pass on
        inputs of its own, verified like every timed pass."""
        inputs = self.check_inputs()
        try:
            res = self.run_pass(inputs, nullcontext, lambda: None)
            out = self.verify(inputs, res, full=True)
        finally:
            self.discard(inputs)
        if res.failed:
            out.append(oracles.CheckResult(
                f"{self.name}.check_pass",
                [f"{res.failed} of {res.attempted} operations failed"], True))
        return out

    def check_inputs(self):
        return self.pass_inputs(CHECK_INDEX)

    def pass_inputs(self, index: int):
        raise NotImplementedError

    def discard(self, inputs) -> None:
        """Release a pass's inputs (untimed)."""

    def run_pass(self, inputs, operation, between) -> PassResult:
        """Run one pass. Each operation runs inside `with operation():` (a
        root span when traced); between() is called between operations,
        where the speed kernel may be sampled."""
        raise NotImplementedError

    def verify(self, inputs, res: PassResult, full: bool) -> list:
        """Check a pass's outputs against the oracles (untimed). Failed
        operations have no outputs; they count as failures instead. The
        plain-numpy search, which costs as much as the pass, is recomputed
        only when `full` is set: on the check pass and on the first pass
        of each timed section."""
        return []

    def final_check(self) -> list:
        """Checks run once, untimed, after the timed section."""
        return []

    def named_metrics(self, passes: list[PassResult]) -> dict:
        return {}


# -- Monte Carlo -----------------------------------------------------------

class MonteCarlo(Workload):
    item = "replicates"
    CHECK_REPS = 50

    def configs(self):
        raise NotImplementedError

    def __init__(self, *args):
        super().__init__(*args)
        self._configs = self.configs()
        self._first = None

    def pass_inputs(self, index):
        return [dataclasses.replace(cfg, seed=derive_seed(self.seed, self.code, index, j))
                for j, cfg in enumerate(self._configs)]

    def run_pass(self, inputs, operation, between):
        limit = self.tb.cli.DISAGREEMENT_SE_LIMIT  # the CLI exits 4 above it
        res = PassResult()
        for cfg in inputs:
            between()
            res.attempted += 1
            report, elapsed = res.timed(operation, self.tb.run_simulation, cfg)
            res.item_s += elapsed
            if isinstance(report, Exception):
                res.failed += 1
                continue
            if report.max_dev_se is not None and report.max_dev_se > limit:
                res.failed += 1
                res.errors.append(f"run_simulation: {report.max_dev_se:.3f} SE "
                                  f"from the closed form, over {limit}")
                continue
            res.items += report.reps_used
            res.outputs.append((cfg, np.array(report.empirical)))
        return res

    def check(self):
        """Run the first configuration, with few replicates, twice."""
        cfg = dataclasses.replace(self._configs[0], reps=self.CHECK_REPS,
                                  seed=derive_seed(self.seed, self.code, CHECK_INDEX))
        return [self._repeat_check("mc.check_repeat_bit_identical", cfg,
                                   np.array(self.tb.run_simulation(cfg).empirical))]

    def verify(self, inputs, res, full):
        if self._first is None and res.outputs:
            self._first = res.outputs[0]
        return []

    def final_check(self):
        """Repeat the first successful timed configuration with its seed."""
        if self._first is None:
            return [oracles.CheckResult("mc.repeat_bit_identical",
                                        ["no operation succeeded"], True)]
        return [self._repeat_check("mc.repeat_bit_identical", *self._first)]

    def _repeat_check(self, name, cfg, empirical):
        pair = (empirical, np.array(self.tb.run_simulation(cfg).empirical))
        return oracles.run_check(name, oracles.check_bit_identical, pair,
                                 oracles.bit_control(pair))

    def named_metrics(self, passes):
        item_s = sum(p.item_s for p in passes)
        return {"mc.reps_per_s": (per(sum(p.items for p in passes), item_s), "1/s")}


class McCrit07(MonteCarlo):
    name = "mc-crit07"

    def configs(self):
        tb = self.tb
        gaussian = tb.AssignmentDistribution.standard_gaussian()
        quad = tb.mc.QUADRATIC
        return [
            tb.SimConfig(rule=tb.TieBreaker(0.0), n=4000, reps=2000),
            tb.SimConfig(rule=tb.TieBreaker(0.5), n=4000, reps=2000),
            tb.SimConfig(rule=tb.TieBreaker(1.0), n=4000, reps=2000),
            tb.SimConfig(rule=tb.TieBreaker(0.5), distribution=gaussian,
                         n=4000, reps=2000),
            tb.SimConfig(rule=tb.TieBreaker(0.0), model=quad, n=4000, reps=2000),
            tb.SimConfig(rule=tb.TieBreaker(1.0), model=quad, n=4000, reps=2000),
            tb.SimConfig(rule=tb.IntervalRule(0.6, 0.8), n=20000, reps=2000),
        ]


class McSmallN(MonteCarlo):
    name = "mc-small-n"

    def configs(self):
        tb = self.tb
        return [
            tb.SimConfig(rule=tb.TieBreaker(0.5), n=400, reps=10000),
            tb.SimConfig(rule=tb.TieBreaker(1.0), model=tb.mc.QUADRATIC,
                         n=400, reps=10000),
        ]


# -- design search ---------------------------------------------------------

def search_check(name, values, thetas, results, deltas, ps, rng):
    """Compare a search's ranking with the plain-numpy oracle."""
    ranked = oracles.ranked_from_results(results)
    reference, borderline = oracles.reference_search(values, thetas, deltas, ps)
    ranks = oracles.sample_ranks(len(reference), rng)

    def check(out):
        return oracles.check_search(out, reference, borderline, ranks)

    return oracles.run_check(name, check, ranked, oracles.search_control(ranked))


class SearchLargeN(Workload):
    name = "search-large-n"
    item = "candidates"
    speed_parts = ("bulk", "small", "stream")
    ROWS = 200_000
    CHECK_ROWS = 20_000
    DELTAS = tuple(np.linspace(0.0, 2.0, 41))
    PS = (0.5,)
    NAMES = ("intercept", "x1", "x2", "x3")

    def pass_inputs(self, index, rows=ROWS):
        rng = rng_for(self.seed, self.code, index)
        values = np.column_stack([np.ones(rows), rng.standard_normal((rows, 3))])
        thetas = [tuple(t) for t in unit_rows(rng, 8, 4)]
        path = os.path.join(self.workdir, f"features-{index}.csv")
        write_csv(path, values, self.NAMES)
        return index, path, values, thetas

    def check_inputs(self):
        return self.pass_inputs(CHECK_INDEX, rows=self.CHECK_ROWS)

    def discard(self, inputs):
        os.remove(inputs[1])

    def run_pass(self, inputs, operation, between):
        """One operation, `tiebreak search` in process: load the CSV, then
        search. The two calls are timed apart so that the speed kernel can
        be sampled between them."""
        tb = self.tb
        _, path, _, thetas = inputs
        res = PassResult(attempted=1)
        features, load_s = res.timed(operation, tb.FeatureMatrix.from_csv, path)
        if isinstance(features, Exception):
            res.failed = 1
            return res
        between()
        results, search_s = res.timed(operation, tb.design_search, features, thetas,
                                      self.DELTAS, ps=self.PS, criterion="trace")
        if isinstance(results, Exception):
            res.failed = 1
            return res
        res.op_s.append(load_s + search_s)
        res.items = len(thetas) * len(self.DELTAS) * len(self.PS)
        res.item_s = search_s
        res.outputs.append((features.values, results))
        return res

    def verify(self, inputs, res, full):
        if not res.outputs:
            return []
        index, _, values, thetas = inputs
        parsed, results = res.outputs[0]
        checks = [oracles.run_check("search.csv_roundtrip", oracles.check_same_table,
                                    (parsed, values), (parsed, values[::-1]))]
        if full:
            checks.append(search_check("search.reference_ranking", values, thetas, results,
                                       self.DELTAS, self.PS,
                                       rng_for(self.seed, self.code, index, 1)))
        return checks

    def named_metrics(self, passes):
        item_s = sum(p.item_s for p in passes)
        ops = [s for p in passes for s in p.op_s]
        return {"search.candidates_per_s": (per(sum(p.items for p in passes), item_s), "1/s"),
                "search.op_s": (float(np.median(ops)) if ops else 0.0, "s")}


# -- closed forms, sliding scales and a small search ------------------------

def logistic_scale(tb, slope: float, shift: float):
    return tb.SlidingScale.from_callable(
        lambda t: 1.0 / (1.0 + math.exp(-slope * (t - shift))))


def monotone_table(rng: np.random.Generator, knots: int):
    xs = np.concatenate([[-1.0], np.sort(rng.uniform(-0.95, 0.95, knots - 2)), [1.0]])
    steps = rng.exponential(size=knots)
    ps = np.cumsum(steps) / steps.sum()
    lo, hi = sorted(rng.uniform(0.0, 0.3, 2))
    return xs, np.clip(lo + (1.0 - lo - hi) * (ps - ps[0]) / (ps[-1] - ps[0]), 0.0, 1.0)


class AnalyticManySmall(Workload):
    name = "analytic-many-small"
    item = "evaluations"
    SWEEP = 401
    X_GRID = tuple(np.linspace(-1.0, 1.0, 41))
    TABLES = 48
    CALLABLES = 8
    RULES = 16
    ROWS = 500
    THETAS = 64
    DELTAS = tuple(np.linspace(0.0, 2.0, 41))
    PS = (0.5, 0.7)

    def pass_inputs(self, index):
        tb = self.tb
        rng = rng_for(self.seed, self.code, index)
        deltas = np.sort(rng.uniform(0.0, 1.0, self.SWEEP))
        windows = np.sort(rng.uniform(-1.0, 1.0, (self.SWEEP, 2)), axis=1)
        window_ps = rng.uniform(0.2, 0.8, self.SWEEP)
        scales = [tb.SlidingScale.from_table(*monotone_table(rng, int(k)))
                  for k in rng.integers(4, 13, self.TABLES)]
        scales += [logistic_scale(tb, float(a), float(b))
                   for a, b in zip(rng.uniform(2.0, 8.0, self.CALLABLES),
                                   rng.uniform(-0.3, 0.3, self.CALLABLES))]
        scales += [tb.SlidingScale.from_rule(tb.TieBreaker(float(d)))
                   for d in rng.uniform(0.05, 0.95, self.RULES)]
        values = np.column_stack([np.ones(self.ROWS),
                                  rng.standard_normal((self.ROWS, 2))])
        thetas = [tuple(t) for t in unit_rows(rng, self.THETAS, 3)]
        search = (tb.FeatureMatrix.from_array(values), values, thetas)
        return index, deltas, windows, window_ps, scales, search

    def _calls(self, inputs):
        """Every closed-form and sliding-scale call of a pass, in order, as
        (kind, function, args, kwargs); kind names its oracle."""
        tb = self.tb
        _, deltas, windows, window_ps, scales, _ = inputs
        x_grid = np.asarray(self.X_GRID)
        for d in deltas.tolist():
            yield "covariance_uniform", tb.covariance_uniform, (d,), {"full": True}
            yield "covariance_gaussian", tb.covariance_gaussian, (d,), {"full": True}
            yield "covariance_quadratic", tb.covariance_quadratic, (d,), {}
            yield "var_gain_at_x", tb.var_gain_at_x, (d, x_grid), {}
        for (a, b), p in zip(windows.tolist(), window_ps.tolist()):
            yield "noncentral_covariance", tb.noncentral_covariance, (a, b, p), {"full": True}
        for scale in scales:
            # A scale without breakpoints is smooth; its moments are only
            # as accurate as adaptive quadrature makes them.
            smooth = "" if scale.breakpoints else SMOOTH
            yield "sliding_moments" + smooth, tb.sliding_moments, (scale,), {}
            yield ("full_covariance_sliding" + smooth, tb.full_covariance_sliding,
                   (scale,), {})
            yield "symmetrized_balance", tb.symmetrize, (scale,), {}

    def run_pass(self, inputs, operation, between):
        res = PassResult()
        for kind, fn, args, kwargs in self._calls(inputs):
            between()
            res.attempted += 1
            out, elapsed = res.timed(operation, fn, *args, **kwargs)
            res.latencies.append(elapsed)
            if isinstance(out, Exception):
                res.failed += 1
            else:
                res.outputs.append((kind, args, out))
        res.items = res.attempted - res.failed
        res.item_s = sum(res.latencies)
        features, values, thetas = inputs[-1]
        between()
        res.attempted += 1
        results, search_s = res.timed(operation, self.tb.design_search, features, thetas,
                                      self.DELTAS, ps=self.PS, criterion="trace")
        if isinstance(results, Exception):
            res.failed += 1
        else:
            # Only successful searches count towards search.candidates_per_s.
            res.op_s.append(search_s)
            res.outputs.append(("search", (), results))
        return res

    def verify(self, inputs, res, full):
        """The closed forms and sliding scales against the moment-matrix
        oracles (one check per function), and the search against the
        plain-numpy search."""
        groups: dict = {}
        search = []
        for i, (kind, args, out) in enumerate(res.outputs):
            if kind == "search":
                search.append(out)
                continue
            got, want = closed_form_pair(kind, args, out)
            groups.setdefault(kind, []).append((f"output {i} ({kind})", got, want))
        checks = []
        for name, items in groups.items():
            check = CHECKS.get(name, oracles.check_close)
            shift = (oracles.SMOOTH_CONTROL_SHIFT if name.endswith(SMOOTH)
                     else oracles.CONTROL_SHIFT)
            checks.append(oracles.run_check(f"analytic.{name}", check, items,
                                            oracles.perturbed(items, shift)))
        index, *_, (_, values, thetas) = inputs
        checks += [search_check("analytic.search_reference_ranking", values, thetas,
                                results, self.DELTAS, self.PS,
                                rng_for(self.seed, self.code, index, 1))
                   for results in search if full]
        return checks

    def named_metrics(self, passes):
        lat = [s for p in passes for s in p.latencies]
        item_s = sum(p.item_s for p in passes)
        searches = [s for p in passes for s in p.op_s]
        cand = len(self.DELTAS) * len(self.PS) * self.THETAS * len(searches)
        p50, p90 = np.quantile(lat, [0.5, 0.9])
        return {"analytic.evals_per_s": (per(sum(p.items for p in passes), item_s), "1/s"),
                "analytic.eval_us.p50": (float(p50) * 1e6, "us"),
                "analytic.eval_us.p90": (float(p90) * 1e6, "us"),
                "analytic.eval_samples": (len(lat), "count"),
                "search.candidates_per_s": (per(cand, sum(searches)), "1/s")}


# Checks other than check_close at rounding accuracy: the sliding scales
# are integrated by quadrature to an absolute tolerance, a looser one on
# smooth scales (see oracles.SMOOTH_MOMENT_ATOL).
SMOOTH = "_smooth"
CHECKS = {"sliding_moments": oracles.check_moments,
          "symmetrized_balance": oracles.check_moments,
          "full_covariance_sliding": oracles.check_sliding_covariance,
          "sliding_moments" + SMOOTH: partial(oracles.check_moments,
                                              atol=oracles.SMOOTH_MOMENT_ATOL),
          "full_covariance_sliding" + SMOOTH: partial(oracles.check_sliding_covariance,
                                                      atol=oracles.SMOOTH_MOMENT_ATOL)}


def closed_form_pair(kind, args, out):
    """(output, oracle value) of one closed-form or sliding-scale call."""
    ux2 = oracles.uniform_x_moments(2)
    if kind == "covariance_uniform":
        return out.matrix, oracles.uniform_identity(args[0])
    if kind == "covariance_gaussian":
        return out.matrix, oracles.covariance(oracles.gaussian_x_moments(2),
                                              oracles.gaussian_tiebreaker_z_moments(args[0]))
    if kind == "covariance_quadratic":
        d = args[0]
        return out.matrix, oracles.covariance(oracles.uniform_x_moments(4),
                                              oracles.window_z_moments(-d, d, 0.5, 4),
                                              oracles.QUADRATIC)
    if kind == "var_gain_at_x":
        d, x = args
        return out, oracles.effect_variance(oracles.uniform_identity(d), x)
    if kind == "noncentral_covariance":
        return out.matrix, oracles.covariance(ux2, oracles.window_z_moments(*args, 2))
    kind = kind.removesuffix(SMOOTH)
    want = oracles.scale_z_moments(args[0])
    if kind == "sliding_moments":
        return (out.z_mean, out.zx_mean, out.zx2_mean), want
    if kind == "full_covariance_sliding":
        return out.matrix, oracles.covariance(ux2, want)
    if kind == "symmetrized_balance":
        # symmetrize keeps E[zx] and zeroes E[z] and E[zx^2].
        return oracles.scale_z_moments(out), (0.0, want[1], 0.0)
    raise ValueError(kind)


WORKLOADS = {cls.name: (code, cls) for code, cls in enumerate(
    (McCrit07, McSmallN, SearchLargeN, AnalyticManySmall), start=1)}


def make_workload(name: str, tb, seed: int, workdir: str) -> Workload:
    code, cls = WORKLOADS[name]
    return cls(tb, seed, workdir, code)
