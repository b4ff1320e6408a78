"""The path-space transforms that the tests apply: the Lamperti log-time
change, scaling by a constant and pointwise sums of independent ensembles."""

from __future__ import annotations

import numpy as np

from .processes import ContractViolation, PathEnsemble, TimeGrid, _by_columns, generate
from .randkit import RngState


def lamperti_apply(ensemble: PathEnsemble, alpha: float, y_grid) -> PathEnsemble:
    """Map a path on times ``exp(y)`` to ``exp(-alpha*y/2) * X(exp(y))``.

    The input must have been generated at exponential times: its grid has
    to match ``exp(y_grid)`` within 1e-12.  For a process scaling at
    exponent ``alpha`` the output is stationary in ``y``.
    """
    y = np.asarray(y_grid, dtype=np.float64)
    if y.ndim != 1 or y.size != ensemble.n_times:
        raise ContractViolation("y_grid length must match the ensemble grid")
    if np.any(np.abs(ensemble.grid.times - np.exp(y)) > 1e-12):
        raise ContractViolation("ensemble grid does not equal exp(y_grid) within 1e-12")
    factors = np.exp(-alpha * y / 2.0)
    values = _by_columns(np.multiply, ensemble.values, factors)
    return PathEnsemble(
        TimeGrid(y),
        values,
        ensemble.spec,
        ensemble.seed,
        ensemble.stream,
        meta={**ensemble.meta, "lamperti_alpha": float(alpha)},
    )


def scale_paths(ensemble: PathEnsemble, c: float) -> PathEnsemble:
    """Multiply every value by ``c``; the grid is unchanged."""
    return ensemble.with_values(ensemble.values * c)


def sum_independent(
    spec, n: int, grid: TimeGrid, n_paths: int, rng: RngState
) -> PathEnsemble:
    """Pointwise sum of ``n`` independently generated ensembles of the spec.

    The parts are added in split order into one running total, so past
    the first part the sum holds the total and the part being drawn.
    """
    n = int(n)
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    # a copy, as the parts are read-only
    total = generate(spec, grid, n_paths, rng.split(0)).values.copy()
    for i in range(1, n):
        np.add(total, generate(spec, grid, n_paths, rng.split(i)).values, out=total)
    return PathEnsemble(
        grid if isinstance(grid, TimeGrid) else TimeGrid(grid),
        total,
        spec,
        rng.seed,
        rng.stream,
        meta={"sum_of": n},
    )
