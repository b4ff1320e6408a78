"""Sample-path ensembles for every process family in the toolkit.

Each family is declared by a small frozen spec object carrying its
parameters and the exponent at which it claims the time-divisibility
property; ``generate`` dispatches on the spec type.  Path ensembles are
immutable: an N-by-m value matrix over a shared time grid plus the
metadata needed to reproduce it bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .kernels import FBmKernel, SpectralKernel, cov_matrix
from .randkit import RngState, StableParams, sample_normal, sample_stable


class ContractViolation(RuntimeError):
    """A runtime contract failed (non-monotone chronometer, grid mismatch)."""


class FactorizationError(RuntimeError):
    """Covariance factorization failed even after the maximum jitter."""


class TimeGrid:
    """Strictly increasing sampling times shared by an ensemble.

    Times must be nonnegative for process generation; transformed
    ensembles (log-time coordinates) may carry negative entries and are
    built with ``allow_negative=True``.
    """

    __slots__ = ("times",)

    def __init__(self, times, allow_negative: bool = False):
        t = np.asarray(times, dtype=np.float64)
        if t.ndim != 1 or t.size == 0:
            raise ValueError("grid must be a nonempty 1-d collection of times")
        if not np.all(np.isfinite(t)):
            raise ValueError("grid times must be finite")
        if np.any(np.diff(t) <= 0):
            raise ValueError("grid times must be strictly increasing")
        if not allow_negative and t[0] < 0:
            raise ValueError("grid times must be nonnegative")
        t.setflags(write=False)
        self.times = t

    def __len__(self) -> int:
        return self.times.size

    def __getitem__(self, i) -> float:
        return float(self.times[i])

    def __eq__(self, other):
        return isinstance(other, TimeGrid) and np.array_equal(self.times, other.times)

    def scale(self, a: float) -> "TimeGrid":
        if not a > 0:
            raise ValueError("scale factor must be positive")
        return TimeGrid(self.times * a, allow_negative=bool(self.times[0] < 0))

    def __repr__(self) -> str:
        return f"TimeGrid({self.times.tolist()})"


class PathEnsemble:
    """N sample paths on a shared grid, immutable after construction."""

    __slots__ = ("grid", "values", "spec", "seed", "stream", "meta")

    def __init__(self, grid: TimeGrid, values, spec, seed: int, stream: int = 0, meta=None):
        v = np.ascontiguousarray(values, dtype=np.float64)
        if v.ndim != 2:
            raise ValueError("values must be a 2-d matrix (paths x times)")
        if v.shape[0] < 1:
            raise ValueError("ensemble needs at least one path")
        if v.shape[1] != len(grid):
            raise ValueError(
                f"value columns ({v.shape[1]}) must match grid size ({len(grid)})"
            )
        v.setflags(write=False)
        self.grid = grid
        self.values = v
        self.spec = spec
        self.seed = int(seed)
        self.stream = int(stream)
        self.meta = dict(meta or {})

    @property
    def n_paths(self) -> int:
        return self.values.shape[0]

    @property
    def n_times(self) -> int:
        return self.values.shape[1]

    def with_values(self, values, grid=None, meta_update=None) -> "PathEnsemble":
        meta = dict(self.meta)
        if meta_update:
            meta.update(meta_update)
        return PathEnsemble(
            grid if grid is not None else self.grid,
            values,
            self.spec,
            self.seed,
            self.stream,
            meta,
        )


# ---------------------------------------------------------------------------
# Levy families: building blocks with independent stationary increments
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Brownian:
    """Brownian motion with volatility and drift.

    ``volatility = 0`` degenerates to the deterministic line ``drift * t``,
    which serves as the identity chronometer.
    """

    volatility: float = 1.0
    drift: float = 0.0

    def __post_init__(self):
        if self.volatility < 0:
            raise ValueError(f"volatility must be nonnegative, got {self.volatility}")


@dataclass(frozen=True)
class StableMotion:
    """Strictly stable motion; increment over dt is ``dt**(1/index)`` stable."""

    index: float
    skew: float = 0.0

    def __post_init__(self):
        StableParams(self.index, self.skew)  # validates the domain


@dataclass(frozen=True)
class GammaSubordinator:
    """Gamma process: increment over dt is Gamma(shape*dt, rate), nondecreasing."""

    shape: float
    rate: float

    def __post_init__(self):
        if not self.shape > 0:
            raise ValueError(f"shape must be positive, got {self.shape}")
        if not self.rate > 0:
            raise ValueError(f"rate must be positive, got {self.rate}")


@dataclass(frozen=True)
class CompoundPoisson:
    """Compound Poisson with normal jumps."""

    intensity: float
    jump_mean: float = 0.0
    jump_sd: float = 1.0

    def __post_init__(self):
        if self.intensity < 0:
            raise ValueError(f"intensity must be nonnegative, got {self.intensity}")
        if self.jump_sd < 0:
            raise ValueError(f"jump sd must be nonnegative, got {self.jump_sd}")


LevyFamily = Union[Brownian, StableMotion, GammaSubordinator, CompoundPoisson]


def is_nondecreasing_family(family: LevyFamily) -> bool:
    """True when every path of the family is almost surely nondecreasing."""
    if isinstance(family, GammaSubordinator):
        return True
    if isinstance(family, StableMotion):
        return family.index < 1.0 and family.skew == 1.0
    if isinstance(family, Brownian):
        return family.volatility == 0.0 and family.drift >= 0.0
    if isinstance(family, CompoundPoisson):
        return family.jump_sd == 0.0 and family.jump_mean >= 0.0
    return False


def levy_increments(family: LevyFamily, dt, rng: RngState, size=None):
    """Independent increments of the family over the given time lengths.

    ``dt`` broadcasts to ``size`` when given; an entry of 0 yields an
    increment of exactly 0.
    """
    dt = np.asarray(dt, dtype=np.float64)
    if np.any(dt < 0):
        raise ValueError("increment durations must be nonnegative")
    if size is not None:
        dt = np.broadcast_to(dt, size)
    if isinstance(family, Brownian):
        out = family.drift * dt
        if family.volatility > 0:
            out = out + family.volatility * np.sqrt(dt) * sample_normal(rng, dt.shape)
        return out
    if isinstance(family, StableMotion):
        draws = sample_stable(rng, StableParams(family.index, family.skew), dt.shape)
        return dt ** (1.0 / family.index) * draws
    if isinstance(family, GammaSubordinator):
        out = np.zeros(dt.shape)
        pos = dt > 0
        if np.any(pos):
            out[pos] = rng.generator.gamma(family.shape * dt[pos], 1.0 / family.rate)
        return out
    if isinstance(family, CompoundPoisson):
        counts = rng.generator.poisson(family.intensity * dt)
        out = family.jump_mean * counts
        if family.jump_sd > 0:
            jitter = np.zeros(dt.shape)
            jumped = counts > 0
            if np.any(jumped):
                jitter[jumped] = np.sqrt(counts[jumped]) * sample_normal(
                    rng, int(jumped.sum())
                )
            out = out + family.jump_sd * jitter
        return np.asarray(out, dtype=np.float64)
    raise TypeError(f"unknown Levy family {family!r}")


# ---------------------------------------------------------------------------
# Process specs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StableLine:
    """Random line ``X_t = t * S`` with S strictly stable of the given index."""

    alpha: float

    def __post_init__(self):
        StableParams(self.alpha, 0.0)

    @property
    def idt_exponent(self) -> float:
        return self.alpha


@dataclass(frozen=True)
class PowerLine:
    """Power curve ``X_t = t**alpha * S`` with S standard Cauchy."""

    alpha: float

    def __post_init__(self):
        if not self.alpha > 0:
            raise ValueError(f"alpha must be positive, got {self.alpha}")

    @property
    def idt_exponent(self) -> float:
        return self.alpha


@dataclass(frozen=True)
class GaussianKernel:
    """Centered Gaussian process with the given scaling covariance kernel."""

    kernel: Union[FBmKernel, SpectralKernel]

    @property
    def idt_exponent(self) -> float:
        return self.kernel.idt_exponent


@dataclass(frozen=True)
class AdditiveTimeChange:
    """Levy process run through the deterministic clock ``t -> t**alpha``."""

    family: LevyFamily
    alpha: float

    def __post_init__(self):
        if not self.alpha > 0:
            raise ValueError(f"alpha must be positive, got {self.alpha}")

    @property
    def idt_exponent(self) -> float:
        return self.alpha


@dataclass(frozen=True)
class Subordinated:
    """Levy process evaluated along an independent nondecreasing chronometer."""

    family: LevyFamily
    chrono: "ProcessSpec"

    def __post_init__(self):
        if not is_nondecreasing_spec(self.chrono):
            raise ValueError(
                "chronometer spec must be provably nondecreasing by construction"
            )

    @property
    def idt_exponent(self) -> float:
        return self.chrono.idt_exponent


@dataclass(frozen=True)
class Mixture:
    """Weighted combination ``sum_i w_i X(u_i * t)`` of one underlying path."""

    base: "ProcessSpec"
    atoms: tuple

    def __post_init__(self):
        atoms = tuple((float(u), float(w)) for u, w in self.atoms)
        object.__setattr__(self, "atoms", atoms)
        if not atoms:
            raise ValueError("mixture needs at least one atom")
        for u, _ in atoms:
            if not u > 0:
                raise ValueError(f"mixture dilation must be positive, got {u}")

    @property
    def idt_exponent(self) -> float:
        return self.base.idt_exponent


@dataclass(frozen=True)
class WeightedSubordinator:
    """Weighted sum ``sum_j w_j X((u_j * t)**alpha)`` of one subordinator path."""

    family: LevyFamily
    atoms: tuple
    alpha: float

    def __post_init__(self):
        atoms = tuple((float(u), float(w)) for u, w in self.atoms)
        object.__setattr__(self, "atoms", atoms)
        if not atoms:
            raise ValueError("needs at least one atom")
        for u, w in atoms:
            if not u > 0:
                raise ValueError(f"dilation must be positive, got {u}")
            if w < 0:
                raise ValueError(f"weight must be nonnegative, got {w}")
        if not self.alpha > 0:
            raise ValueError(f"alpha must be positive, got {self.alpha}")
        if not is_nondecreasing_family(self.family):
            raise ValueError("family must be a nondecreasing (subordinator) family")

    @property
    def idt_exponent(self) -> float:
        return self.alpha


ProcessSpec = Union[
    StableLine,
    PowerLine,
    GaussianKernel,
    AdditiveTimeChange,
    Subordinated,
    Mixture,
    WeightedSubordinator,
]


def is_nondecreasing_spec(spec) -> bool:
    """True when every path of the spec is nondecreasing by construction."""
    if isinstance(spec, AdditiveTimeChange):
        return is_nondecreasing_family(spec.family)
    if isinstance(spec, Subordinated):
        return is_nondecreasing_family(spec.family) and is_nondecreasing_spec(spec.chrono)
    if isinstance(spec, WeightedSubordinator):
        return True
    if isinstance(spec, Mixture):
        return is_nondecreasing_spec(spec.base) and all(w >= 0 for _, w in spec.atoms)
    return False


def spec_label(spec) -> str:
    """Canonical readable label; stable across runs, used in keys and metadata."""
    if isinstance(spec, StableLine):
        return f"stable_line(alpha={spec.alpha!r})"
    if isinstance(spec, PowerLine):
        return f"power_line(alpha={spec.alpha!r})"
    if isinstance(spec, GaussianKernel):
        k = spec.kernel
        if isinstance(k, FBmKernel):
            return f"gaussian(fbm(hurst={k.hurst!r}))"
        atoms = ",".join(f"({a!r},{w!r})" for a, w in k.measure.atoms)
        return f"gaussian(spectral(alpha={k.alpha!r},atoms=[{atoms}]))"
    if isinstance(spec, AdditiveTimeChange):
        return f"additive({family_label(spec.family)},alpha={spec.alpha!r})"
    if isinstance(spec, Subordinated):
        return f"subordinated({family_label(spec.family)},chrono={spec_label(spec.chrono)})"
    if isinstance(spec, Mixture):
        atoms = ",".join(f"({u!r},{w!r})" for u, w in spec.atoms)
        return f"mixture({spec_label(spec.base)},atoms=[{atoms}])"
    if isinstance(spec, WeightedSubordinator):
        atoms = ",".join(f"({u!r},{w!r})" for u, w in spec.atoms)
        return f"weighted_subordinator({family_label(spec.family)},atoms=[{atoms}],alpha={spec.alpha!r})"
    raise TypeError(f"unknown spec {spec!r}")


def family_label(family: LevyFamily) -> str:
    if isinstance(family, Brownian):
        return f"brownian(volatility={family.volatility!r},drift={family.drift!r})"
    if isinstance(family, StableMotion):
        return f"stable_motion(index={family.index!r},skew={family.skew!r})"
    if isinstance(family, GammaSubordinator):
        return f"gamma(shape={family.shape!r},rate={family.rate!r})"
    if isinstance(family, CompoundPoisson):
        return (
            f"compound_poisson(intensity={family.intensity!r},"
            f"jump_mean={family.jump_mean!r},jump_sd={family.jump_sd!r})"
        )
    raise TypeError(f"unknown family {family!r}")


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------


def gaussian_paths(kernel, grid: TimeGrid, n_paths: int, rng: RngState) -> PathEnsemble:
    """Exact joint Gaussian sampling via Cholesky with escalating jitter.

    The factorization is attempted plain first, then with diagonal jitter
    ``1e-12 * trace/n`` escalated tenfold up to three times; the jitter
    actually used is recorded in the ensemble metadata.  Times equal to 0
    are allowed for the fBm kernel only (the value there is exactly 0).
    """
    times = grid.times
    if isinstance(kernel, SpectralKernel) and times[0] <= 0:
        raise ValueError("spectral kernels require strictly positive times")
    positive = times > 0
    tpos = times[positive]
    if tpos.size == 0:
        values = np.zeros((n_paths, len(grid)))
        return PathEnsemble(grid, values, GaussianKernel(kernel), rng.seed, rng.stream)
    m = cov_matrix(kernel, tpos)
    base_jitter = 1e-12 * float(np.trace(m)) / m.shape[0]
    jitter_used = 0.0
    chol = None
    for attempt in range(4):
        jitter = 0.0 if attempt == 0 else base_jitter * 10.0 ** (attempt - 1)
        try:
            chol = np.linalg.cholesky(m + jitter * np.eye(m.shape[0]))
            jitter_used = jitter
            break
        except np.linalg.LinAlgError:
            continue
    if chol is None:
        raise FactorizationError(
            f"covariance factorization failed after max jitter {base_jitter * 100:g}"
        )
    z = sample_normal(rng, (int(n_paths), m.shape[0]))
    values = np.zeros((int(n_paths), len(grid)))
    values[:, positive] = z @ chol.T
    return PathEnsemble(
        grid,
        values,
        GaussianKernel(kernel),
        rng.seed,
        rng.stream,
        meta={"jitter": jitter_used},
    )


def additive_paths(
    family: LevyFamily, alpha: float, grid: TimeGrid, n_paths: int, rng: RngState
) -> PathEnsemble:
    """Levy path on the deformed clock: cumulative increments over ``t**alpha``."""
    if not alpha > 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    clock = grid.times**alpha
    dts = np.diff(clock, prepend=0.0)
    incs = levy_increments(family, dts, rng, size=(int(n_paths), len(grid)))
    values = np.cumsum(incs, axis=1)
    spec = AdditiveTimeChange(family, alpha)
    return PathEnsemble(grid, values, spec, rng.seed, rng.stream)


def _chronometer_increments(chrono_values: np.ndarray) -> np.ndarray:
    """Per-path elapsed chronometer time, validating monotonicity."""
    if np.any(chrono_values[:, 0] < 0):
        path = int(np.argmax(chrono_values[:, 0] < 0))
        raise ContractViolation(f"chronometer path {path} is negative at the first time")
    diffs = np.diff(chrono_values, axis=1)
    if np.any(diffs < 0):
        path = int(np.argmax(np.any(diffs < 0, axis=1)))
        raise ContractViolation(f"chronometer path {path} is decreasing")
    return np.concatenate([chrono_values[:, :1], diffs], axis=1)


def subordinated_paths(
    family: LevyFamily, chrono, grid: TimeGrid, n_paths: int, rng: RngState
) -> PathEnsemble:
    """Levy process evaluated along chronometer paths drawn independently."""
    chrono_ens = generate(chrono, grid, n_paths, rng.split(0))
    dxi = _chronometer_increments(chrono_ens.values)
    incs = levy_increments(family, dxi, rng.split(1), size=dxi.shape)
    values = np.cumsum(incs, axis=1)
    spec = Subordinated(family, chrono)
    return PathEnsemble(grid, values, spec, rng.seed, rng.stream)


def _blend_on_merged_grid(atoms, grid: TimeGrid, sample, exponent: float = 1.0) -> np.ndarray:
    """``sum_i w_i * X((u_i * t)**exponent)`` over the atoms ``(u_i, w_i)``.

    ``sample(merged)`` draws the one underlying path ``X`` at the sorted
    distinct points; every atom then gathers its columns from it.
    """
    points = np.multiply.outer(np.array([u for u, _ in atoms]), grid.times) ** exponent
    merged = np.unique(points)
    pos = np.searchsorted(merged, points)
    weights = np.array([w for _, w in atoms])
    return np.einsum("i,nij->nj", weights, sample(merged)[:, pos])


def mixture_paths(
    base, atoms, grid: TimeGrid, n_paths: int, rng: RngState
) -> PathEnsemble:
    """Weighted combination of one underlying path on the merged dilated grid."""
    spec = Mixture(base, tuple(atoms))
    values = _blend_on_merged_grid(
        spec.atoms, grid, lambda merged: generate(base, TimeGrid(merged), n_paths, rng.split(0)).values
    )
    return PathEnsemble(grid, values, spec, rng.seed, rng.stream)


def weighted_subordinator_paths(
    family: LevyFamily, atoms, alpha: float, grid: TimeGrid, n_paths: int, rng: RngState
) -> PathEnsemble:
    """Weighted sum of one subordinator path over the merged ``(u*t)**alpha`` epochs."""
    spec = WeightedSubordinator(family, tuple(atoms), alpha)

    def subordinator(epochs):
        dts = np.diff(epochs, prepend=0.0)
        return np.cumsum(levy_increments(family, dts, rng, size=(int(n_paths), epochs.size)), axis=1)

    values = _blend_on_merged_grid(spec.atoms, grid, subordinator, alpha)
    return PathEnsemble(grid, values, spec, rng.seed, rng.stream)


def fbm_moving_average_paths(
    hurst: float,
    weights,
    u_grid,
    grid: TimeGrid,
    n_paths: int,
    rng: RngState,
) -> PathEnsemble:
    """Discretized moving-average integral of fractional Brownian motion.

    The weight function is a step function on the truncated fine grid
    ``u_grid``: value ``weights[m]`` on ``[u_grid[m], u_grid[m+1])``, zero
    outside.  Each sample combines one underlying fBm path:
    ``sum_m phi(u_m / t) * (B(u_{m+1}) - B(u_m))``, which carries an
    O(mesh) discretization bias.
    """
    u = np.asarray(u_grid, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    if u.ndim != 1 or u.size < 2 or np.any(np.diff(u) <= 0) or u[0] < 0:
        raise ValueError("u_grid must be increasing, nonnegative, with >= 2 edges")
    if w.shape != (u.size - 1,):
        raise ValueError("need one weight per u_grid cell")
    if np.any(grid.times <= 0):
        raise ValueError("evaluation times must be strictly positive")

    dfbm = np.diff(gaussian_paths(FBmKernel(hurst), TimeGrid(u), n_paths, rng).values, axis=1)  # (N, M)

    # phi evaluated at u_m / t for the left endpoints u_m
    left = u[:-1]
    ratios = left[None, :] / grid.times[:, None]  # (n_times, M)
    cell = np.searchsorted(u, ratios, side="right") - 1
    inside = (cell >= 0) & (cell < w.size) & (ratios < u[-1])
    phi = np.where(inside, w[np.clip(cell, 0, w.size - 1)], 0.0)  # (n_times, M)
    values = dfbm @ phi.T
    return PathEnsemble(
        grid,
        values,
        None,
        rng.seed,
        rng.stream,
        meta={"kind": "fbm_moving_average", "hurst": hurst, "mesh": float(np.max(np.diff(u)))},
    )


def generate(spec, grid: TimeGrid, n_paths: int, rng: RngState) -> PathEnsemble:
    """Dispatch to the family generator; paths are mutually independent."""
    if not isinstance(grid, TimeGrid):
        grid = TimeGrid(grid)
    if grid.times[0] < 0:
        raise ValueError("process generation needs nonnegative times")
    n_paths = int(n_paths)
    if n_paths < 1:
        raise ValueError("n_paths must be at least 1")
    if isinstance(spec, StableLine):
        draws = sample_stable(rng, StableParams(spec.alpha, 0.0), n_paths)
        values = draws[:, None] * grid.times[None, :]
        return PathEnsemble(grid, values, spec, rng.seed, rng.stream)
    if isinstance(spec, PowerLine):
        draws = sample_stable(rng, StableParams(1.0, 0.0), n_paths)
        values = draws[:, None] * (grid.times**spec.alpha)[None, :]
        return PathEnsemble(grid, values, spec, rng.seed, rng.stream)
    if isinstance(spec, GaussianKernel):
        return gaussian_paths(spec.kernel, grid, n_paths, rng)
    if isinstance(spec, AdditiveTimeChange):
        return additive_paths(spec.family, spec.alpha, grid, n_paths, rng)
    if isinstance(spec, Subordinated):
        return subordinated_paths(spec.family, spec.chrono, grid, n_paths, rng)
    if isinstance(spec, Mixture):
        return mixture_paths(spec.base, spec.atoms, grid, n_paths, rng)
    if isinstance(spec, WeightedSubordinator):
        return weighted_subordinator_paths(
            spec.family, spec.atoms, spec.alpha, grid, n_paths, rng
        )
    raise TypeError(f"unknown process spec {spec!r}")
