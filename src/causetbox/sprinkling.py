"""Poisson sprinkling into a Minkowski causal diamond.

A sprinkle draws a Poisson number of points uniformly from the
Alexandrov diamond between the tips ``(-T, 0)`` and ``(T, 0)`` in
d-dimensional Minkowski space, adds the top tip as a deterministic
evaluation element, and induces the causal order (``a < b`` when the
time separation is at least the spatial separation; lightlike-related
points count as related).  Minkowski causality is transitive, so the
induced relation is a valid strict order by construction — it is still
validated on every build.

Randomness is counter-based: a sprinkle is a pure function of its
config (including the seed), and :func:`estimate_box` derives one
independent child stream per trial, so trials are reproducible and
order-independent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .causet import MAX_ARRAY_BYTES, CausalSet, box_operator
from .coefficients import FeasibilityError, _check_dimension

__all__ = [
    "DiamondConfig",
    "SprinkleResult",
    "FieldSpec",
    "ConstantField",
    "MonomialField",
    "TableField",
    "diamond_volume",
    "causal_matrix",
    "boost_coords",
    "sprinkle",
    "field_values",
    "parse_field_spec",
    "estimate_box",
]


@dataclass(frozen=True)
class DiamondConfig:
    """Sprinkling parameters: dimension, point density, diamond
    half-height ``T`` (tips at times ``-T`` and ``T``), and RNG seed."""

    dimension: int
    density: float
    half_height: float
    seed: int

    def __post_init__(self) -> None:
        _check_dimension(self.dimension)
        if not self.density > 0:
            raise ValueError(f"density must be positive, got {self.density}")
        if not self.half_height > 0:
            raise ValueError(f"half height must be positive, got {self.half_height}")

    @property
    def length_scale(self) -> float:
        """The discreteness scale, from density = length_scale**(-d)."""
        return self.density ** (-1.0 / self.dimension)


@dataclass(frozen=True)
class SprinkleResult:
    """One sprinkled causal set plus the index of the top-tip element."""

    causal_set: CausalSet
    eval_index: int


@dataclass(frozen=True)
class ConstantField:
    value: float


@dataclass(frozen=True)
class MonomialField:
    """Product of coordinate powers; ``exponents`` is per coordinate,
    time first, e.g. ``(2,)`` padded as needed means t**2."""

    exponents: tuple[int, ...]


@dataclass(frozen=True)
class TableField:
    """Explicit per-element values; only usable when the element count
    matches the table length."""

    values: tuple[float, ...]


FieldSpec = ConstantField | MonomialField | TableField


def diamond_volume(dimension: int, half_height: float) -> float:
    """Volume of the causal diamond between ``(-T, 0)`` and ``(T, 0)``.

    Two back-to-back cones: ``2 * V_ball(d-1) * T**d / d`` with the unit
    (d-1)-ball volume ``pi**((d-1)/2) / gamma((d+1)/2)``.  For d = 2
    this is ``2 * T**2``.
    """
    _check_dimension(dimension)
    if half_height < 0:
        raise ValueError(f"half height must be >= 0, got {half_height}")
    d = dimension
    try:
        unit_ball = math.pi ** ((d - 1) / 2) / math.gamma((d + 1) / 2)
        volume = 2.0 * unit_ball * half_height**d / d
    except OverflowError:
        volume = math.inf
    if not math.isfinite(volume):
        raise ValueError(f"diamond volume overflows a float in dimension {d}")
    return volume


def causal_matrix(coords: np.ndarray) -> np.ndarray:
    """Strict causal order induced by Minkowski metric on coordinate rows.

    ``a < b`` iff ``t_b - t_a >= |x_b - x_a|`` and ``t_b > t_a``
    (lightlike separations count as related; exact duplicates are
    incomparable).
    """
    coords = np.asarray(coords, dtype=float)
    times = coords[:, 0]
    spatial = coords[:, 1:]
    dt = times[None, :] - times[:, None]
    dx = np.linalg.norm(spatial[None, :, :] - spatial[:, None, :], axis=2)
    return (dt >= dx) & (dt > 0)


def boost_coords(coords: np.ndarray, rapidity: float) -> np.ndarray:
    """Lorentz boost of 2-dimensional coordinates by the given rapidity."""
    coords = np.asarray(coords, dtype=float)
    if coords.ndim != 2 or coords.shape[1] != 2:
        raise ValueError("boost_coords expects (t, x) coordinate rows")
    cosh, sinh = math.cosh(rapidity), math.sinh(rapidity)
    t, x = coords[:, 0], coords[:, 1]
    return np.column_stack((cosh * t - sinh * x, -sinh * t + cosh * x))


def _sample_diamond(
    rng: np.random.Generator, dimension: int, half_height: float, count: int
) -> np.ndarray:
    """Draw ``count`` i.i.d. uniform points from the diamond by rejection
    sampling from its bounding box."""
    accepted: list[np.ndarray] = []
    remaining = count
    while remaining > 0:
        batch = max(2 * remaining, 16)
        points = rng.uniform(
            -half_height, half_height, size=(batch, dimension)
        )
        radii = np.linalg.norm(points[:, 1:], axis=1)
        keep = points[radii <= half_height - np.abs(points[:, 0])]
        accepted.append(keep[:remaining])
        remaining -= len(keep[:remaining])
    if not accepted:
        return np.empty((0, dimension))
    return np.concatenate(accepted, axis=0)


def _sprinkle_with_rng(config: DiamondConfig, rng: np.random.Generator) -> SprinkleResult:
    volume = diamond_volume(config.dimension, config.half_height)
    count = int(rng.poisson(config.density * volume))
    points = _sample_diamond(rng, config.dimension, config.half_height, count)
    order = np.lexsort(points.T[::-1]) if count else np.empty(0, dtype=int)
    points = points[order]  # canonical time-then-space ordering
    tip = np.zeros((1, config.dimension))
    tip[0, 0] = config.half_height
    coords = np.concatenate([points, tip], axis=0)
    causal_set = CausalSet(precedes=causal_matrix(coords), coords=coords)
    return SprinkleResult(causal_set=causal_set, eval_index=count)


def sprinkle(config: DiamondConfig) -> SprinkleResult:
    """One sprinkle, a pure function of the config."""
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(config.seed)))
    return _sprinkle_with_rng(config, rng)


def field_values(spec: FieldSpec, causal_set: CausalSet) -> np.ndarray:
    """Per-element field values; monomials need coordinates.

    A monomial multiplies numpy scalar powers left to right, row by row:
    whole-column array powers can round differently in the last bit, and
    Python float powers raise where numpy gives ``inf`` (``0.0 ** -1``).
    """
    if isinstance(spec, ConstantField):
        return np.full(causal_set.size, float(spec.value))
    if isinstance(spec, TableField):
        if len(spec.values) != causal_set.size:
            raise ValueError(
                f"table field has {len(spec.values)} values for "
                f"{causal_set.size} elements"
            )
        return np.asarray(spec.values, dtype=float)
    if causal_set.coords is None:
        raise ValueError("coordinate fields need a causal set with coordinates")
    exponents = spec.exponents
    width = causal_set.coords.shape[1]
    if len(exponents) > width:
        raise ValueError(
            f"monomial uses {len(exponents)} coordinates but the point has {width}"
        )
    rows = causal_set.coords[:, : len(exponents)]
    return np.array(
        [math.prod(v**e for v, e in zip(row, exponents)) for row in rows], dtype=float
    )


def parse_field_spec(text: str) -> FieldSpec:
    """Parse CLI field syntax: ``const:VALUE``, ``mono:E0,E1,...``
    (coordinate exponents, time first), or ``table:V0,V1,...``."""
    kind, _, payload = text.partition(":")
    try:
        if kind == "const":
            return ConstantField(value=float(payload))
        if kind == "mono":
            return MonomialField(
                exponents=tuple(int(e) for e in payload.split(",") if e != "")
            )
        if kind == "table":
            return TableField(
                values=tuple(float(v) for v in payload.split(",") if v != "")
            )
    except ValueError as exc:
        raise ValueError(f"malformed field spec {text!r}: {exc}") from exc
    raise ValueError(
        f"unknown field spec {text!r}; expected const:..., mono:..., or table:..."
    )


def _check_budget(config: DiamondConfig, trials: int) -> None:
    """Refuse an estimate whose arrays would not fit ``MAX_ARRAY_BYTES``.

    A trial with ``N`` elements holds, at its peak in
    :func:`causal_matrix`, ``d - 1`` spatial differences plus the
    distance and time-difference matrices: ``d + 1`` float64 values per
    ordered pair.  ``N`` is taken as the expected Poisson count plus the
    tip, and the per-trial values add one float64 per trial.
    """
    elements = config.density * diamond_volume(config.dimension, config.half_height)
    pairs = (elements + 1) * (elements + 1)  # a float product: inf, never OverflowError
    needed = 8 * (config.dimension + 1) * pairs + 8 * trials
    if not needed <= MAX_ARRAY_BYTES:
        raise FeasibilityError(
            f"sprinkle too large: about {elements:.4g} elements per trial and "
            f"{trials} trials need about {needed:.3g} bytes "
            f"(guard: <= {MAX_ARRAY_BYTES} bytes)"
        )


def estimate_box(
    config: DiamondConfig, field_spec: FieldSpec, trials: int
) -> tuple[float, float]:
    """Monte Carlo mean and standard error of the box operator at the tip.

    Each trial sprinkles independently (child RNG stream ``(seed, trial)``),
    evaluates the operator at the top tip with the length scale derived
    from the density, and the results are averaged in trial order.  A
    request whose arrays exceed ``MAX_ARRAY_BYTES`` raises
    :class:`~causetbox.coefficients.FeasibilityError` before any is allocated.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    _check_budget(config, trials)
    values = np.empty(trials)
    for trial in range(trials):
        seq = np.random.SeedSequence(entropy=config.seed, spawn_key=(trial,))
        rng = np.random.Generator(np.random.Philox(seq))
        result = _sprinkle_with_rng(config, rng)
        field = field_values(field_spec, result.causal_set)
        values[trial] = box_operator(
            result.causal_set,
            config.dimension,
            config.length_scale,
            field,
            result.eval_index,
        )
    mean = float(values.mean())
    if trials == 1:
        return mean, 0.0
    std_error = float(values.std(ddof=1) / math.sqrt(trials))
    return mean, std_error
