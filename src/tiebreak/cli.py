"""Command-line interface.

Every command writes one table to stdout, as CSV (RFC 4180, LF line
endings, '.' decimal points) or as JSON via --out. Output for a given
set of flags and seed is byte-identical across runs. Exit codes: 0 on
success, 2 for usage errors, 3 when a design is degenerate or a search
finds nothing feasible, 4 when a simulation disagrees with its closed
form by more than the standard-error budget.
"""

from __future__ import annotations

import contextlib
import csv
import json
import math
import sys

import click
import numpy as np
from click.core import ParameterSource

from . import mc, quadratic, twoline
from .covariance import design_covariance
from .designs import (AssignmentDistribution, IntervalRule, SlidingScale,
                      STANDARD_GAUSSIAN, ThreeLevelRule, TieBreaker,
                      UNIFORM_RANK)
from .errors import (DegenerateDesignError, DomainError, NoFeasibleDesignError)
from .general import CRITERIA, FeatureMatrix, design_search

DISAGREEMENT_SE_LIMIT = 4.0

_DIST_CHOICES = (UNIFORM_RANK, STANDARD_GAUSSIAN)

# Most points a lo:hi:step grid may hold; a longer one is refused before
# any of it is built.
GRID_POINT_LIMIT = 1_000_000


def parse_grid(text: str, name: str = "grid") -> list[float]:
    """Parse "lo:hi:step" into an inclusive grid, or a bare float into a
    one-point grid."""
    parts = text.split(":")
    try:
        if len(parts) == 1:
            return [float(parts[0])]
        if len(parts) == 3:
            lo, hi, step = (float(p) for p in parts)
        else:
            raise ValueError
    except ValueError:
        raise click.UsageError(
            f"{name} must be a number or lo:hi:step, got {text!r}") from None
    if not all(math.isfinite(v) for v in (lo, hi, step)):
        raise click.UsageError(f"{name} lo, hi and step must be finite, got {text!r}")
    if step <= 0.0:
        raise click.UsageError(f"{name} step must be positive")
    if hi < lo:
        raise click.UsageError(f"{name} upper end is below the lower end")
    span = (hi - lo) / step
    count = math.floor(span + 1e-9) + 1 if math.isfinite(span) else math.inf
    if count > GRID_POINT_LIMIT:
        raise click.UsageError(
            f"{name} {text!r} holds more than {GRID_POINT_LIMIT} points")
    return [lo + k * step for k in range(count)]


def parse_vector(text: str, name: str = "vector") -> tuple[float, ...]:
    try:
        return tuple(float(p) for p in text.split(","))
    except ValueError:
        raise click.UsageError(
            f"{name} must be comma-separated numbers, got {text!r}") from None


def _norm(value):
    if isinstance(value, float) and value == 0.0:
        return 0.0  # fold -0.0 into 0.0
    return value


def _cell(value) -> str:
    value = _norm(value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def emit_table(columns: list[str], rows: list[list], fmt: str) -> None:
    if fmt == "json":
        payload = {"columns": columns,
                   "rows": [[_norm(v) for v in row] for row in rows]}
        click.echo(json.dumps(payload, indent=2))
        return
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_cell(v) for v in row])


def _out_option(fn):
    return click.option("--out", type=click.Choice(["csv", "json"]),
                        default="csv", show_default=True,
                        help="Output format.")(fn)


@contextlib.contextmanager
def _exit_codes():
    """Map the package's errors to exit codes: a DomainError is a usage
    error (exit 2); a degenerate design or a search with nothing
    feasible prints its message and exits 3."""
    try:
        yield
    except DomainError as exc:
        raise click.UsageError(str(exc)) from exc
    except (DegenerateDesignError, NoFeasibleDesignError) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(3)


@click.group()
def main():
    """Design and analysis tools for tie-breaker experiments."""


@main.command("twoline-curves")
@click.option("--delta-grid", default="0:1:0.05", show_default=True,
              help="Window widths, lo:hi:step or a single value.")
@click.option("--distribution", type=click.Choice(_DIST_CHOICES),
              default=UNIFORM_RANK, show_default=True)
@_out_option
def cmd_twoline_curves(delta_grid, distribution, out):
    """Coefficient variances and efficiency across window widths."""
    deltas = parse_grid(delta_grid, "--delta-grid")
    dist = AssignmentDistribution(distribution)
    with _exit_codes():
        rdd_effect_var = float(twoline.var_gain_at_x(0.0, 0.0, dist))
        efficiency = rdd_effect_var / twoline.var_gain_at_x(deltas, 0.0, dist)
        rows = []
        for d, eff in zip(deltas, efficiency.tolist()):
            cov = design_covariance(TieBreaker(float(d)), dist)
            rows.append([
                d,
                cov.var("beta0"), cov.var("beta1"),
                cov.var("beta2"), cov.var("beta3"),
                cov.cov("beta0", "beta3"), cov.cov("beta1", "beta2"),
                eff,
            ])
    emit_table(["delta", "n_var_beta0", "n_var_beta1", "n_var_beta2",
                "n_var_beta3", "n_cov_beta0_beta3", "n_cov_beta1_beta2",
                "efficiency_vs_rdd"], rows, out)


@main.command("gain-variance")
@click.option("--delta-grid", default="0:1:0.1", show_default=True)
@click.option("--x-grid", default="-1:1:0.25", show_default=True,
              help="Positions at which the effect estimate is evaluated.")
@click.option("--model", type=click.Choice([mc.TWOLINE, mc.QUADRATIC]),
              default=mc.TWOLINE, show_default=True)
@click.option("--distribution", type=click.Choice(_DIST_CHOICES),
              default=UNIFORM_RANK, show_default=True)
@_out_option
def cmd_gain_variance(delta_grid, x_grid, model, distribution, out):
    """Variance of the estimated treatment effect across the score range."""
    deltas = parse_grid(delta_grid, "--delta-grid")
    xs = parse_grid(x_grid, "--x-grid")
    dist = AssignmentDistribution(distribution)
    if model == mc.QUADRATIC and dist.kind != UNIFORM_RANK:
        raise click.UsageError("the quadratic model is analysed on the "
                               "uniform rank scale only")
    with _exit_codes():
        if model == mc.TWOLINE:
            table = twoline.var_gain_at_x(np.asarray(deltas)[:, None], xs, dist)
        else:
            table = [quadratic.var_gain_quadratic(d, xs) for d in deltas]
        rows = [[d, x, float(v)] for d, vs in zip(deltas, table) for x, v in zip(xs, vs)]
    emit_table(["delta", "x", "n_var_gain"], rows, out)


@main.command("optimal-delta")
@click.option("--beta3", type=float, required=True,
              help="Interaction slope of the outcome model.")
@click.option("--lam", type=float, required=True,
              help="Weight on precision in the design objective.")
@click.option("--beta0", type=float, default=0.0, show_default=True)
@click.option("--n", type=float, default=1.0, show_default=True,
              help="Cohort size used for the experimentation cost.")
@_out_option
def cmd_optimal_delta(beta3, lam, beta0, n, out):
    """Window width maximizing gain plus lam times precision."""
    with _exit_codes():
        d = twoline.optimal_delta(beta3, lam)
        rows = [[beta3, lam, beta0, d,
                 twoline.gain(d, beta3, beta0),
                 twoline.precision(d),
                 twoline.value(d, beta3, lam, beta0),
                 twoline.experimentation_cost(d, beta3, n)]]
    emit_table(["beta3", "lam", "beta0", "delta_star", "gain", "precision",
                "value", "experimentation_cost"], rows, out)


@main.command("noncentral")
@click.option("--a", type=float, required=True, help="Lower window edge.")
@click.option("--b", type=float, required=True, help="Upper window edge.")
@click.option("--p", type=float, default=0.5, show_default=True,
              help="Treatment probability inside the window.")
@click.option("--full", is_flag=True,
              help="Emit the full 4x4 covariance, not just (beta2, beta3).")
@_out_option
def cmd_noncentral(a, b, p, full, out):
    """Scaled covariance for randomization on an off-centre window."""
    with _exit_codes():
        cov = twoline.noncentral_covariance(a, b, p, full=full)
    rows = [[li, lj, float(cov.matrix[i, j])]
            for i, li in enumerate(cov.labels) for j, lj in enumerate(cov.labels)]
    emit_table(["coef_i", "coef_j", "n_cov"], rows, out)


@main.command("search")
@click.option("--features", "features_path", required=True,
              type=click.Path(exists=True, dir_okay=False),
              help="CSV of subject features with a header row.")
@click.option("--add-intercept", is_flag=True,
              help="Prepend an all-ones intercept column.")
@click.option("--theta", "thetas", multiple=True, required=True,
              help="Candidate score direction, comma-separated; repeatable.")
@click.option("--delta-grid", default="0:1:0.25", show_default=True)
@click.option("--p", "ps", multiple=True, type=float, default=(0.5,),
              show_default=True, help="Window coin probabilities; repeatable.")
@click.option("--criterion", type=click.Choice(CRITERIA), default="trace",
              show_default=True)
@click.option("--contrast", default=None,
              help="Contrast vector for the contrast criterion.")
@_out_option
def cmd_search(features_path, add_intercept, thetas, delta_grid, ps,
               criterion, contrast, out):
    """Rank candidate threshold designs on a feature table."""
    deltas = parse_grid(delta_grid, "--delta-grid")
    theta_vecs = [parse_vector(t, "--theta") for t in thetas]
    contrast_vec = None if contrast is None else parse_vector(contrast, "--contrast")
    with _exit_codes():
        fm = FeatureMatrix.from_csv(features_path, add_intercept=add_intercept)
        report = design_search(fm, theta_vecs, deltas, ps=ps,
                               criterion=criterion, contrast=contrast_vec)
    columns = (report.values, report.theta_index, report.delta_index, report.p_index)
    rows = [[rank, ",".join(repr(v) for v in report.thetas[t]), report.deltas[j],
             report.ps[k], criterion, value]
            for rank, (value, t, j, k) in enumerate(zip(*(c.tolist() for c in columns)),
                                                    start=1)]
    emit_table(["rank", "theta", "delta", "p", "criterion", "value"], rows, out)


@main.command("simulate")
@click.option("--model", type=click.Choice([mc.TWOLINE, mc.QUADRATIC]),
              default=mc.TWOLINE, show_default=True)
@click.option("--distribution", type=click.Choice(_DIST_CHOICES),
              default=UNIFORM_RANK, show_default=True)
@click.option("--delta", type=float, default=0.5, show_default=True,
              help="Window width for the tie-breaker or three-level rule.")
@click.option("--p", type=float, default=0.5, show_default=True,
              help="Treatment probability inside the window.")
@click.option("--a", type=float, default=None,
              help="Lower edge of an explicit window (with --b).")
@click.option("--b", type=float, default=None,
              help="Upper edge of an explicit window (with --a).")
@click.option("--epsilon", type=float, default=None,
              help="Outer-region probability of a three-level rule.")
@click.option("--scale", "scale_path", default=None,
              type=click.Path(exists=True, dir_okay=False),
              help="CSV of a sliding scale (columns x, p).")
@click.option("--n", type=int, default=4000, show_default=True)
@click.option("--reps", type=int, default=2000, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--sigma", type=float, default=1.0, show_default=True)
@click.option("--scheme", type=click.Choice([mc.SIMPLE_RANDOM,
                                             mc.STRATIFIED_PAIRS]),
              default=mc.SIMPLE_RANDOM, show_default=True)
@_out_option
def cmd_simulate(model, distribution, delta, p, a, b, epsilon, scale_path,
                 n, reps, seed, sigma, scheme, out):
    """Monte Carlo check of a design against its closed-form covariance.

    Exits 4 when any covariance entry misses its closed form by more
    than 4 standard errors, and 3 when the design itself is degenerate.
    A --delta or --p that the chosen rule does not use exits 2.
    """
    if (a is None) != (b is None):
        raise click.UsageError("--a and --b must be given together")
    picked = [name for name, flag in
              [("window", a is not None), ("scale", scale_path is not None),
               ("three-level", epsilon is not None)] if flag]
    if len(picked) > 1:
        raise click.UsageError(
            "at most one of --a/--b, --scale, --epsilon may be given")
    source = click.get_current_context().get_parameter_source
    for name, unused in (("delta", a is not None or scale_path is not None),
                         ("p", scale_path is not None or epsilon is not None)):
        if unused and source(name) is ParameterSource.COMMANDLINE:
            raise click.UsageError(f"--{name} does not apply to the {picked[0]} rule")
    with _exit_codes():
        if scale_path is not None:
            rule = SlidingScale.from_csv(scale_path)
        elif a is not None:
            rule = IntervalRule(a, b, p)
        elif epsilon is not None:
            rule = ThreeLevelRule(delta, epsilon)
        else:
            rule = TieBreaker(delta, p)
        report = mc.run_simulation(mc.SimConfig(
            rule=rule, model=model, distribution=AssignmentDistribution(distribution),
            n=n, reps=reps, seed=seed, sigma=sigma, scheme=scheme))
    if out == "json":
        click.echo(json.dumps(report.to_dict(), indent=2))
    else:
        rows = []
        for i, li in enumerate(report.labels):
            for j, lj in enumerate(report.labels):
                emp = float(report.empirical[i, j])
                ref = float(report.reference[i, j])
                se = float(report.se[i, j])
                rows.append([li, lj, emp, ref, se, abs(emp - ref) / se])
        emit_table(["coef_i", "coef_j", "n_cov_empirical", "n_cov_reference",
                    "se", "abs_dev_se"], rows, out)
    if report.max_dev_se > DISAGREEMENT_SE_LIMIT:
        click.echo(f"error: empirical covariance deviates from the closed "
                   f"form by {report.max_dev_se:.2f} standard errors", err=True)
        sys.exit(4)


if __name__ == "__main__":
    main()
