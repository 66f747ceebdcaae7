"""Standalone optimizer self-test: drive the GP/EI loop against a known
analytic objective and record the per-proposal trace."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bayes_opt import (
    BOX_HIGH,
    BOX_LOW,
    fit_gp,
    hp_to_vector,
    initial_design,
    propose,
)
from .losses import HyperParams


def quadratic_objective(w: HyperParams):
    """Shifted quadratic over box-normalized coordinates, minimum at the center."""
    z = (hp_to_vector(w) - BOX_LOW) / (BOX_HIGH - BOX_LOW)
    return float(((z - 0.5) ** 2).sum())


QUADRATIC_MINIMUM = 0.0  # continuous minimum; integer grids sit slightly above


@dataclass(frozen=True)
class TraceEntry:
    index: int
    phase: str  # "init" or "propose"
    hyperparams: HyperParams
    value: float
    best_so_far: float


def run_tuning(seed, rounds=30, pool_size=256, n_initial=8,
               objective=quadratic_objective):
    """Initial design plus `rounds` EI proposals; returns the evaluation trace."""
    if n_initial < 1 or rounds < 0 or pool_size < 1:
        raise ValueError("run_tuning needs n_initial >= 1, rounds >= 0 and pool_size >= 1, "
                         f"got {n_initial}, {rounds} and {pool_size}")
    rng = np.random.default_rng(seed)
    points = list(initial_design(rng, n_initial))
    values = [objective(w) for w in points]
    trace = []
    best = float("inf")
    for i, (w, v) in enumerate(zip(points, values)):
        best = min(best, v)
        trace.append(TraceEntry(index=i, phase="init", hyperparams=w,
                                value=v, best_so_far=best))
    for r in range(rounds):
        gp = fit_gp(points, values)
        w = propose(gp, pool_size, rng)
        v = objective(w)
        points.append(w)
        values.append(v)
        best = min(best, v)
        trace.append(TraceEntry(index=n_initial + r, phase="propose",
                                hyperparams=w, value=v, best_so_far=best))
    return trace


def trace_csv_lines(trace):
    yield f"index,phase,{HyperParams.CSV_HEADER},value,best_so_far"
    for t in trace:
        yield (f"{t.index},{t.phase},{t.hyperparams.csv_fields()},"
               f"{t.value:.17g},{t.best_so_far:.17g}")
