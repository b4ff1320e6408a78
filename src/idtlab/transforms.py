"""Deterministic path-space transforms: log-time change, scaling, sums."""

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
        TimeGrid(y, allow_negative=True),
        values,
        ensemble.spec,
        ensemble.seed,
        ensemble.stream,
        meta={**ensemble.meta, "lamperti_alpha": float(alpha)},
    )


def lamperti_invert(ensemble: PathEnsemble, alpha: float) -> PathEnsemble:
    """Undo ``lamperti_apply``: divide by the same factors, grid ``exp(y)``.

    Division by the identical factor array restores the input to within
    one unit in the last place; it is bit-exact whenever the factors are
    powers of two (dyadic ``alpha * y / 2`` grids).
    """
    y = ensemble.grid.times
    factors = np.exp(-alpha * y / 2.0)
    values = _by_columns(np.divide, ensemble.values, factors)
    meta = {k: v for k, v in ensemble.meta.items() if k != "lamperti_alpha"}
    return PathEnsemble(
        TimeGrid(np.exp(y)),
        values,
        ensemble.spec,
        ensemble.seed,
        ensemble.stream,
        meta=meta,
    )


def scale_paths(ensemble: PathEnsemble, c: float) -> PathEnsemble:
    """Multiply every value by ``c``; the grid is unchanged."""
    return ensemble.with_values(ensemble.values * c)


def dilate_grid(ensemble: PathEnsemble, a: float) -> PathEnsemble:
    """Relabel ``X(a*t)`` as a process in ``t``: values kept, times divided by ``a``."""
    if not a > 0:
        raise ValueError(f"dilation factor must be positive, got {a}")
    grid = TimeGrid(
        ensemble.grid.times / a, allow_negative=bool(ensemble.grid.times[0] < 0)
    )
    return ensemble.with_values(ensemble.values, grid=grid)


def sum_independent(
    spec, n: int, grid: TimeGrid, n_paths: int, rng: RngState
) -> PathEnsemble:
    """Pointwise sum of ``n`` independently generated ensembles of the spec."""
    n = int(n)
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    total = None
    for i in range(n):
        part = generate(spec, grid, n_paths, rng.split(i))
        total = part.values if total is None else total + part.values
    return PathEnsemble(
        grid if isinstance(grid, TimeGrid) else TimeGrid(grid),
        total,
        spec,
        rng.seed,
        rng.stream,
        meta={"sum_of": n},
    )
