"""Sample-path ensembles for every process family in the toolkit.

Each family is declared by a small frozen spec object carrying its
parameters and the exponent at which it claims the time-divisibility
property; ``generate`` dispatches on the spec type.  Path ensembles are
immutable: an N-by-m value matrix over a shared time grid plus the
metadata needed to reproduce it bit for bit.

Memory: Levy-based generators (additive, subordinated, weighted
subordinator) fill one ``8*N*m``-byte output in place, ``_BLOCK_BYTES``
(1 MiB) of rows at a time, so a draw holds its output plus a few
block-sized temporaries.  Only Brownian and gamma increments are drawn
in blocks: they take one variate per element in C order, so blocks drawn
from one continuing stream give the whole-array bytes.  Stable motion
(all ``u``, then all ``w``), compound Poisson (all counts, then normals),
Gaussian kernels (BLAS products), lines, mixtures and chronometers that
split their own streams again are drawn as one block.
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


def levy_increments(family: LevyFamily, dt, rng: RngState, size=None, out=None):
    """Independent increments of the family over the given time lengths.

    ``dt`` broadcasts to ``size`` (or to ``out``, which receives the
    increments and may be ``dt`` itself); an entry of 0 yields an
    increment of exactly 0.
    """
    dt = np.asarray(dt, dtype=np.float64)
    if np.any(dt < 0):
        raise ValueError("increment durations must be nonnegative")
    if out is None:
        out = np.empty(dt.shape if size is None else size)
    if isinstance(family, Brownian):
        drift = family.drift * dt
        if family.volatility > 0:
            scale = np.sqrt(dt)
            scale *= family.volatility
            sample_normal(rng, out=out)
            out *= scale
            out += drift  # even at drift 0, since 0.0 + -0.0 is +0.0
        else:
            out[...] = drift
        return out
    if isinstance(family, StableMotion):
        draws = sample_stable(rng, StableParams(family.index, family.skew), out.shape)
        return np.multiply(dt ** (1.0 / family.index), draws, out=out)
    if isinstance(family, GammaSubordinator):
        # a zero shape gives exactly 0 and draws nothing
        rng.generator.standard_gamma(family.shape * dt, out=out)
        out *= 1.0 / family.rate
        return out
    if isinstance(family, CompoundPoisson):
        counts = rng.generator.poisson(family.intensity * dt, size=out.shape)
        np.multiply(family.jump_mean, counts, out=out)
        if family.jump_sd > 0:
            jitter = np.zeros(out.shape)
            jumped = counts > 0
            jitter[jumped] = np.sqrt(counts[jumped]) * sample_normal(rng, int(jumped.sum()))
            out += family.jump_sd * jitter
        return out
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


_BLOCK_BYTES = 1 << 20  # bytes of values in one row block


def _row_blocks(values: np.ndarray, blocked: bool):
    """``(first, rows)`` for consecutive row blocks of ``values``, or one block of all rows."""
    n, m = values.shape
    step = max(1, _BLOCK_BYTES // (8 * m)) if blocked else n
    for first in range(0, n, step):
        yield first, values[first : first + step]


def _drawn_per_element(family: LevyFamily) -> bool:
    """True when the family draws one variate per increment, in C order (see the module docstring)."""
    return isinstance(family, (Brownian, GammaSubordinator))


def additive_paths(
    family: LevyFamily, alpha: float, grid: TimeGrid, n_paths: int, rng: RngState
) -> PathEnsemble:
    """Levy path on the deformed clock: cumulative increments over ``t**alpha``."""
    if not alpha > 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    dts = np.diff(grid.times**alpha, prepend=0.0)
    values = np.empty((int(n_paths), len(grid)))
    for _, rows in _row_blocks(values, _drawn_per_element(family)):
        levy_increments(family, dts, rng, out=rows)
        np.cumsum(rows, axis=1, out=rows)
    spec = AdditiveTimeChange(family, alpha)
    return PathEnsemble(grid, values, spec, rng.seed, rng.stream)


def _chronometer_increments(chrono_values: np.ndarray, out=None, first: int = 0) -> np.ndarray:
    """Per-path elapsed chronometer time, validating monotonicity; row ``i`` is path ``first + i``."""
    out = np.empty_like(chrono_values) if out is None else out
    out[:, 0] = chrono_values[:, 0]
    np.subtract(chrono_values[:, 1:], chrono_values[:, :-1], out=out[:, 1:])
    if np.any(out[:, 0] < 0):
        path = first + int(np.argmax(out[:, 0] < 0))
        raise ContractViolation(f"chronometer path {path} is negative at the first time")
    if np.any(out[:, 1:] < 0):
        path = first + int(np.argmax(np.any(out[:, 1:] < 0, axis=1)))
        raise ContractViolation(f"chronometer path {path} is decreasing")
    return out


def subordinated_paths(
    family: LevyFamily, chrono, grid: TimeGrid, n_paths: int, rng: RngState
) -> PathEnsemble:
    """Levy process evaluated along chronometer paths drawn independently.

    Both streams are split once and continue from block to block, so only
    a clock that does not split its stream again can be drawn in blocks.
    """
    chrono_rng, family_rng = rng.split(0), rng.split(1)
    blocked = _drawn_per_element(family) and (
        isinstance(chrono, AdditiveTimeChange) and _drawn_per_element(chrono.family)
    )
    values = np.empty((int(n_paths), len(grid)))
    for first, rows in _row_blocks(values, blocked):
        _chronometer_increments(generate(chrono, grid, rows.shape[0], chrono_rng).values, rows, first)
        levy_increments(family, rows, family_rng, out=rows)
        np.cumsum(rows, axis=1, out=rows)
    spec = Subordinated(family, chrono)
    return PathEnsemble(grid, values, spec, rng.seed, rng.stream)


def _blend_on_merged_grid(
    atoms, grid: TimeGrid, n_paths: int, sample, exponent: float = 1.0, blocked: bool = False
) -> np.ndarray:
    """``sum_i w_i * X((u_i * t)**exponent)`` over the atoms ``(u_i, w_i)``.

    ``sample(merged, rows)`` draws the next ``rows`` paths of the one
    underlying ``X`` at the sorted distinct points; every atom then
    gathers its columns from it.
    """
    points = np.multiply.outer(np.array([u for u, _ in atoms]), grid.times) ** exponent
    merged = np.unique(points)
    pos = np.searchsorted(merged, points)
    weights = np.array([w for _, w in atoms])
    values = np.empty((int(n_paths), len(grid)))
    for _, rows in _row_blocks(values, blocked):
        np.einsum("i,nij->nj", weights, sample(merged, rows.shape[0])[:, pos], out=rows)
    return values


def mixture_paths(
    base, atoms, grid: TimeGrid, n_paths: int, rng: RngState
) -> PathEnsemble:
    """Weighted combination of one underlying path on the merged dilated grid."""
    spec = Mixture(base, tuple(atoms))
    values = _blend_on_merged_grid(
        spec.atoms, grid, n_paths, lambda merged, rows: generate(base, TimeGrid(merged), rows, rng.split(0)).values
    )
    return PathEnsemble(grid, values, spec, rng.seed, rng.stream)


def weighted_subordinator_paths(
    family: LevyFamily, atoms, alpha: float, grid: TimeGrid, n_paths: int, rng: RngState
) -> PathEnsemble:
    """Weighted sum of one subordinator path over the merged ``(u*t)**alpha`` epochs."""
    spec = WeightedSubordinator(family, tuple(atoms), alpha)

    def subordinator(epochs, rows):
        path = levy_increments(family, np.diff(epochs, prepend=0.0), rng, size=(rows, epochs.size))
        return np.cumsum(path, axis=1, out=path)

    values = _blend_on_merged_grid(spec.atoms, grid, n_paths, subordinator, alpha, _drawn_per_element(family))
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
