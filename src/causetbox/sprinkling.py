"""Poisson sprinkling into a Minkowski causal diamond.

A sprinkle draws a Poisson number of points uniformly from the
Alexandrov diamond between the tips ``(-T, 0)`` and ``(T, 0)`` in
d-dimensional Minkowski space, adds the top tip as a deterministic
evaluation element, and induces the causal order (``a < b`` when the
time separation is at least the spatial separation; lightlike-related
points count as related).  Minkowski causality is transitive, but the
order is computed in floats, and rounding can leave some pairs
intransitive (on lattice points, say), so a sprinkle's order is validated
when its causal set is built.

Randomness is counter-based: a sprinkle is a pure function of its
config (including the seed), and :func:`estimate_box` derives one
independent child stream per trial, so trials are reproducible and
order-independent.  A trial samples the points as :func:`sprinkle` does
but builds no order and validates nothing: it scans back from the tip for
the points within its first ``floor(d/2) + 2`` layers, where the box
operator reads the field, and evaluates the field there only.  The scan
counts a predecessor only if the near points found so far leave it
possibly near, a few array calls in all.  Both budgets charge what a
request does: a trial its scan, a sprinkle its order, and each the points
rejection sampling draws; a drawn count is charged its own draws too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import coefficients  # memoized constants, looked up where a tracer patches them
from .causet import MAX_ARRAY_BYTES, CausalSet, _box, _sum_layers
from .coefficients import FeasibilityError, _check_int, num_layers

__all__ = [
    "DiamondConfig",
    "SprinkleResult",
    "FieldSpec",
    "ConstantField",
    "MonomialField",
    "diamond_volume",
    "causal_matrix",
    "sprinkle",
    "field_values",
    "parse_field_spec",
    "estimate_box",
]


#: Work bound of one Monte Carlo estimate, in steps of roughly 25 ps (one
#: float32 product of the interval pass on a 2-core host): about 40 minutes.
MAX_SPRINKLE_STEPS = 10**14

#: Steps charged to each trial for its fixed cost, about 0.2 ms: sampling,
#: the order or the tip's near set, the field and the coefficients.
_TRIAL_STEPS = 10**7

#: Steps charged per value drawn by rejection sampling, about 120 ns: above
#: the slowest rate measured per drawn value once a batch exceeds its
#: 16-point minimum (110 ns at d = 6; 20-80 ns elsewhere for d = 2..14).
_DRAW_STEPS = 4800

#: Steps charged per float64 value of a scan entry, ``d + 1`` per entry,
#: about 8 ns: above the slowest rate measured on blocks of 64 rows
#: (6.2 ns at d = 10 and N = 20,000; 1.3-3.2 ns below d = 9).
_SCAN_STEPS = 320

#: Rows of one block of :func:`_precedes` entries: the order of
#: :func:`causal_matrix` is built, and a trial's near set scanned
#: (:func:`_near_past`), this many rows at a time, so the float64
#: temporaries span one block, not all ``N x N`` pairs.
_ORDER_BLOCK_ROWS = 64


@dataclass(frozen=True)
class DiamondConfig:
    """Sprinkling parameters: dimension, point density, diamond
    half-height ``T`` (tips at times ``-T`` and ``T``), and RNG seed."""

    dimension: int
    density: float
    half_height: float
    seed: int

    def __post_init__(self) -> None:
        _check_int(self.dimension, "dimension", 2)
        _check_int(self.seed, "seed", 0)
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


FieldSpec = ConstantField | MonomialField


def diamond_volume(dimension: int, half_height: float) -> float:
    """Volume of the causal diamond between ``(-T, 0)`` and ``(T, 0)``.

    Two back-to-back cones: ``2 * V_ball(d-1) * T**d / d`` with the unit
    (d-1)-ball volume ``pi**((d-1)/2) / gamma((d+1)/2)``.  For d = 2
    this is ``2 * T**2``.
    """
    d = _check_int(dimension, "dimension", 2)
    if half_height < 0:
        raise ValueError(f"half height must be >= 0, got {half_height}")
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
    incomparable).  The order is filled in row blocks of
    ``_ORDER_BLOCK_ROWS``, so the float64 temporaries span one block, not
    all ``N x N`` pairs; every entry takes the same float operations.  A
    block skips the leading columns no later in time than its earliest
    row (by running maximum, so for any input order): ``dt <= 0`` there.
    """
    coords = np.asarray(coords, dtype=float)
    time, spatial = coords[:, 0], coords[:, 1:]
    latest = np.maximum.accumulate(time)  # sorted: NaN, from the first NaN on, sorts last
    order = np.zeros((len(coords), len(coords)), dtype=bool)
    for start in range(0, len(coords), _ORDER_BLOCK_ROWS):
        rows = slice(start, start + _ORDER_BLOCK_ROWS)
        # fmin passes over NaN rows, which relate nothing; an all-NaN block skips all
        skip = int(np.searchsorted(latest, np.fmin.reduce(time[rows]), side="right"))
        order[rows, skip:] = _precedes(time, spatial, rows, slice(skip, None))
    return order


def _precedes(time: np.ndarray, spatial: np.ndarray, rows, cols) -> np.ndarray:
    """The entries ``rows x cols`` of :func:`causal_matrix`, each by the
    same float operations whatever the block's shape.  When the rows
    outnumber the columns they are computed ``cols x rows`` and returned
    transposed: numpy's inner loop then runs over the longer side."""
    row_time, col_time = time[rows], time[cols]
    earlier, later = (slice(None), None), (None, slice(None))
    transposed = len(row_time) > len(col_time)
    if transposed:
        earlier, later = later, earlier
    dt = col_time[later] - row_time[earlier]
    if spatial.shape[1] < 8:
        # the squares added left to right, as np.linalg.norm adds fewer than 8,
        # in place: a fresh temporary per pass costs more than the pass
        dx = term = None
        for axis in spatial.T:
            term = np.subtract(axis[cols][later], axis[rows][earlier], out=term)
            np.square(term, out=term)
            if dx is None:  # 0 + the first square is that square
                dx, term = term, None
            else:
                dx += term
        dx = np.zeros(dt.shape) if dx is None else np.sqrt(dx, out=dx)
    else:  # numpy adds 8 or more values pairwise, in another order
        # np.linalg.norm's own path, sqrt(add.reduce(x * x)), squaring in place
        squares = np.subtract(spatial[cols][later], spatial[rows][earlier])
        dx = np.add.reduce(np.square(squares, out=squares), axis=2)
        np.sqrt(dx, out=dx)
    related = dt >= dx
    related &= dt > 0
    return related.T if transposed else related


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
        # np.linalg.norm(axis=1) by its own path, without its Python wrapper
        radii = np.sqrt(np.add.reduce(np.square(points[:, 1:]), axis=1))
        keep = points[radii <= half_height - np.abs(points[:, 0])]
        accepted.append(keep[:remaining])
        remaining -= len(keep[:remaining])
    if not accepted:
        return np.empty((0, dimension))
    return np.concatenate(accepted, axis=0)


def _draws(dimension: int, points: float) -> float:
    """The values rejection sampling is expected to draw for ``points``
    diamond points: ``d`` per point of the bounding box, which holds
    ``2^d / diamond_volume(d, 1)`` points per point of the diamond."""
    # no points draw nothing, even where the box-to-diamond ratio overflows
    return points * 2.0**dimension / diamond_volume(dimension, 1.0) * dimension


def _sample_coords(config: DiamondConfig, rng: np.random.Generator) -> np.ndarray:
    """A Poisson count of diamond points in canonical time-then-space order,
    then the top tip as the last row.  A count whose own expected draws
    exceed ``MAX_SPRINKLE_STEPS`` raises
    :class:`~causetbox.coefficients.FeasibilityError` before any is drawn."""
    volume = diamond_volume(config.dimension, config.half_height)
    count = int(rng.poisson(config.density * volume))
    # the budget charged the mean count; a rarer, larger one can need far more
    steps = _DRAW_STEPS * _draws(config.dimension, count)
    if not steps <= MAX_SPRINKLE_STEPS:
        raise FeasibilityError(
            f"sprinkle too long: a trial's Poisson count {count} takes about {steps:.3g} "
            f"steps of rejection sampling (guard: <= {MAX_SPRINKLE_STEPS:.0e} steps)"
        )
    points = _sample_diamond(rng, config.dimension, config.half_height, count)
    points = points[np.lexsort(points.T[::-1])]
    tip = np.zeros((1, config.dimension))
    tip[0, 0] = config.half_height
    return np.concatenate([points, tip], axis=0)


def _sprinkle_with_rng(config: DiamondConfig, rng: np.random.Generator) -> SprinkleResult:
    coords = _sample_coords(config, rng)
    causal_set = CausalSet(precedes=causal_matrix(coords), coords=coords)
    return SprinkleResult(causal_set=causal_set, eval_index=len(coords) - 1)


def sprinkle(config: DiamondConfig) -> SprinkleResult:
    """One sprinkle, a pure function of the config.  A config whose arrays
    would exceed ``MAX_ARRAY_BYTES`` raises
    :class:`~causetbox.coefficients.FeasibilityError` before sampling."""
    _check_budget(config, 1)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(config.seed)))
    return _sprinkle_with_rng(config, rng)


def field_values(spec: FieldSpec, causal_set: CausalSet) -> np.ndarray:
    """Per-element field values; monomials need coordinates.

    A monomial multiplies numpy scalar powers left to right, row by row:
    whole-column array powers can round differently in the last bit, and
    Python float powers raise where numpy gives ``inf`` (``0.0 ** -1``).
    """
    return _field_at(spec, causal_set.coords, np.arange(causal_set.size))


def _field_at(spec: FieldSpec, coords: np.ndarray | None, elements: np.ndarray) -> np.ndarray:
    """:func:`field_values` at the given rows of ``coords`` only."""
    if isinstance(spec, ConstantField):
        return np.full(len(elements), float(spec.value))
    if coords is None:
        raise ValueError("coordinate fields need a causal set with coordinates")
    exponents = spec.exponents
    width = coords.shape[1]
    if len(exponents) > width:
        raise ValueError(
            f"monomial uses {len(exponents)} coordinates but the point has {width}"
        )
    rows = coords[elements, : len(exponents)]
    return np.array(
        [math.prod(v**e for v, e in zip(row, exponents)) for row in rows], dtype=float
    )


def parse_field_spec(text: str) -> FieldSpec:
    """Parse CLI field syntax: ``const:VALUE`` or ``mono:E0,E1,...``
    (coordinate exponents, time first; ``mono:`` is the constant 1)."""
    kind, colon, payload = text.partition(":")
    try:
        if kind == "const":
            return ConstantField(value=float(payload))
        if kind == "mono":
            if not colon:  # ``mono:`` is the constant 1, ``mono`` a slip
                raise ValueError("no ':' before the exponents")
            return MonomialField(
                exponents=tuple(int(e) for e in payload.split(",")) if payload else ()
            )
    except ValueError as exc:
        raise ValueError(f"malformed field spec {text!r}: {exc}") from exc
    raise ValueError(
        f"unknown field spec {text!r}; expected const:... or mono:..."
    )


def _check_budget(config: DiamondConfig, trials: int, *, order: bool = True) -> None:
    """Refuse a request too large in memory or in work, from its arguments.

    ``N`` is the expected Poisson count plus the tip.  With ``order``, the
    charge is for :func:`sprinkle`, which builds and validates the whole
    order; without, for an :func:`estimate_box` trial, which scans for the
    tip's near set (:func:`_near_past`).

    Memory.  A sprinkle's peak is in validating its order
    (:class:`~causetbox.causet.CausalSet`), at ``6 N^2 + 16 min(N, 512) N``
    bytes, at most ``22 N^2``, except below 83 elements at d = 2 (551 at
    d = 20), where :func:`causal_matrix` holds more: the bool order, one
    byte per ordered pair, plus the temporaries of one block of
    ``_ORDER_BLOCK_ROWS`` rows, at most ``d + 1`` float64 values and three
    bools per pair of the block.  It is charged ``d + 1`` float64 values
    per pair, at least ``24 N^2``, which covers validation at every d and
    the order matrix once N exceeds two blocks (N > 128); a smaller
    sprinkle can hold up to twice its charge, but under 3 MB for d <= 20.
    A trial is charged its coordinates, ``d`` float64 values per
    point, plus one block of ``_ORDER_BLOCK_ROWS x N`` entries at ``d + 2``
    float64 values each: no ``_precedes`` call of the scan holds more, and
    the sampling batches hold less.  Each request adds one float64 per
    trial.

    Work, checked after memory, in steps of about 25 ps, the cost of one
    float32 product of the interval pass.  Each trial is charged
    ``_TRIAL_STEPS`` for its fixed cost and ``_DRAW_STEPS`` per value drawn
    by rejection sampling (:func:`_draws`) for the expected count; each
    drawn count is charged its own draws again in :func:`_sample_coords`.  A
    sprinkle adds ``(d + 1) N^2`` steps for the order matrix and ``N^3``
    for the interval pass that validates it.  A trial adds ``_SCAN_STEPS``
    per value of its scan's worst case, ``(d + 1) N^2``: up to ``N^2 / 2``
    entries counted and as many filtered.  The trials together may take
    ``MAX_SPRINKLE_STEPS``.
    """
    d = config.dimension
    elements = config.density * diamond_volume(d, config.half_height)
    points = elements + 1
    pairs = points * points  # a float product: inf, never OverflowError
    draws = _draws(d, elements)
    if order:
        held, work = 8 * (d + 1) * pairs, (d + 1 + points) * pairs
    else:
        held = 8 * (d + (d + 2) * _ORDER_BLOCK_ROWS) * points
        work = _SCAN_STEPS * (d + 1) * pairs
    needed = held + 8 * trials
    if not needed <= MAX_ARRAY_BYTES:
        raise FeasibilityError(
            f"sprinkle too large: about {elements:.4g} elements per trial and "
            f"{trials} trials need about {needed:.3g} bytes "
            f"(guard: <= {MAX_ARRAY_BYTES} bytes)"
        )
    steps = trials * (_TRIAL_STEPS + _DRAW_STEPS * draws + work)
    if not steps <= MAX_SPRINKLE_STEPS:
        raise FeasibilityError(
            f"sprinkle too long: about {elements:.4g} elements per trial and "
            f"{trials} trials take about {steps:.3g} steps "
            f"(guard: <= {MAX_SPRINKLE_STEPS:.0e} steps)"
        )


def _near_past(coords: np.ndarray, layers: int) -> tuple[np.ndarray, np.ndarray]:
    """``_past`` of the last row on ``causal_matrix(coords)``, cut at
    ``between < layers``, for rows sorted by time, without the order.

    Candidates, at first every predecessor, are counted from the latest,
    ``_ORDER_BLOCK_ROWS`` at a time, each exactly over every later
    predecessor; those counted below ``layers`` are near.  After a block
    that adds near points, each earlier candidate's relations to the new
    ones are added to its tally, and a candidate that precedes ``layers``
    near points is far and never counted.  So a trial's scan is four
    ``_precedes`` calls when the survivors of the first filter fit one
    block, and no call holds more than ``_ORDER_BLOCK_ROWS x N`` entries.
    Every near row is counted with ``causal_matrix``'s float operations:
    the answer holds even where rounding leaves the float order
    intransitive.
    """
    time, spatial = coords[:, 0], coords[:, 1:]
    below = np.flatnonzero(_precedes(time, spatial, slice(None), [len(coords) - 1]))
    candidates, tally = below, np.zeros(below.size, dtype=np.int64)
    near, between = [below[:0]], [tally[:0]]
    while candidates.size:
        block = candidates[-_ORDER_BLOCK_ROWS:]
        candidates, tally = candidates[: -block.size], tally[: -block.size]
        later = below[np.searchsorted(below, block[0]) :]
        counts = _precedes(time, spatial, block, later).sum(axis=1)
        keep = counts < layers
        found = block[keep]
        near.append(found)
        between.append(counts[keep])
        if found.size and candidates.size:
            tally = tally + _precedes(time, spatial, candidates, found).sum(axis=1)
            possible = tally < layers
            candidates, tally = candidates[possible], tally[possible]
    return np.concatenate(near[::-1]), np.concatenate(between[::-1])


def _box_at_tip(config: DiamondConfig, field_spec: FieldSpec, rng: np.random.Generator) -> float:
    """One trial: the box operator at the tip of a fresh sample, from the
    tip's first ``floor(d/2) + 2`` layers only (:func:`_near_past`), with
    the field evaluated there and on the tip.  No order is built and
    nothing is validated; the value is bit-identical to
    :func:`~causetbox.causet.box_operator` on the sprinkle."""
    coords = _sample_coords(config, rng)
    layers = num_layers(config.dimension)
    near, between = _near_past(coords, layers)
    values = _field_at(field_spec, coords, np.append(near, len(coords) - 1))
    constants = coefficients.operator_constants(config.dimension)
    sums = _sum_layers(between, values[:-1], layers)
    return _box(constants, config.length_scale, values[-1], sums)


def estimate_box(
    config: DiamondConfig, field_spec: FieldSpec, trials: int
) -> tuple[float, float]:
    """Monte Carlo mean and standard error of the box operator at the tip.

    Each trial sprinkles independently (child RNG stream ``(seed, trial)``),
    evaluates the operator at the top tip with the length scale derived
    from the density, and the results are averaged in trial order.  The
    field is evaluated only on the tip and its layers (a field infinite or
    NaN only elsewhere does not warn).  A request whose arrays exceed
    ``MAX_ARRAY_BYTES``, or whose work exceeds ``MAX_SPRINKLE_STEPS``, raises
    :class:`~causetbox.coefficients.FeasibilityError` before any is allocated.
    """
    trials = _check_int(trials, "trials", 1)
    _check_budget(config, trials, order=False)
    values = np.empty(trials)
    for trial in range(trials):
        seq = np.random.SeedSequence(entropy=config.seed, spawn_key=(trial,))
        rng = np.random.Generator(np.random.Philox(seq))
        values[trial] = _box_at_tip(config, field_spec, rng)
    mean = float(values.mean())
    if trials == 1:
        return mean, 0.0
    std_error = float(values.std(ddof=1) / math.sqrt(trials))
    return mean, std_error
