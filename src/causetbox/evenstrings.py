"""Binary-string and lattice-path counts for even dimensions.

For diagrams on an even number of points ``2j``, reading off which of
the odd points ``1, 3, ..., 2j-1`` are covered gives a binary string of
length ``j``; every diagram with ``n`` chords maps to a string with
exactly ``n`` ones, and every such string has exactly ``4**n``
preimages.  In even dimension ``d`` this turns the layer coefficients
into honest counts: the number of binary strings with ``d/2 + 1`` ones
and ``d*(i-1)/2`` zeros in which each of the first ``i-1`` ones is
preceded by fewer than ``d/2`` consecutive zeros equals
``(-1)**(i-1) * C_i``.  Unlike the diagram-level restricted count,
this string identity holds at every index.  The lattice-path count is
the same quantity through an independent route (a walk with ``1`` as a
right step and ``0`` as an up step, computed by dynamic programming
instead of enumeration).
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache
from typing import Iterator

from .coefficients import _check_index
from .diagrams import ChordDiagram, FeasibilityError, enumerate_diagrams

__all__ = [
    "odd_point_string",
    "fiber_sizes",
    "enumerate_constrained_strings",
    "count_constrained_strings",
    "count_constrained_paths",
    "MAX_FIBER_CHORDS",
    "MAX_FIBER_LENGTH",
    "MAX_STRING_CANDIDATES",
]

#: Feasibility guard for fiber enumeration.
MAX_FIBER_CHORDS = 3
MAX_FIBER_LENGTH = 5
#: Feasibility guard for string enumeration: the number of placements of
#: the ones that are tried.  d = 10, i = 7 needs 1,947,792 of them.
MAX_STRING_CANDIDATES = 2_000_000


def odd_point_string(diagram: ChordDiagram) -> str:
    """The binary string read off the odd points of an even diagram.

    Entry ``l`` (1-based) is ``'1'`` when point ``2l - 1`` is covered by
    a chord and ``'0'`` when it is bare.
    """
    if diagram.points % 2 != 0:
        raise ValueError(
            f"odd-point string needs an even point count, got {diagram.points}"
        )
    bare = diagram.bare_points()
    half = diagram.points // 2
    return "".join("0" if 2 * l - 1 in bare else "1" for l in range(1, half + 1))


def fiber_sizes(n_chords: int, half_points: int) -> dict[str, int]:
    """Group the diagrams on ``2 * half_points`` points by their string.

    Every key has exactly ``n_chords`` ones, every string of length
    ``half_points`` with that many ones occurs, and every fiber has
    size exactly ``4**n_chords``; those facts are what the fiber
    acceptance check asserts.  Guarded to ``n_chords <= 3`` and
    ``half_points <= 5``.
    """
    if n_chords > MAX_FIBER_CHORDS or half_points > MAX_FIBER_LENGTH:
        raise FeasibilityError(
            f"fiber enumeration too large: {n_chords} chords, length "
            f"{half_points} (guard: <= {MAX_FIBER_CHORDS} chords, "
            f"length <= {MAX_FIBER_LENGTH})"
        )
    sizes: dict[str, int] = {}
    for diagram in enumerate_diagrams(n_chords, 2 * half_points):
        key = odd_point_string(diagram)
        sizes[key] = sizes.get(key, 0) + 1
    return sizes


def _check_even_dimension(dimension: int) -> None:
    if dimension < 2 or dimension % 2 != 0:
        raise ValueError(f"dimension must be an even integer >= 2, got {dimension}")


def enumerate_constrained_strings(dimension: int, index: int) -> Iterator[str]:
    """Yield the constrained binary strings for ``(dimension, index)``.

    Strings have ``dimension/2 + 1`` ones and ``dimension*(index-1)/2``
    zeros; each of the first ``index - 1`` ones must be preceded by
    fewer than ``dimension/2`` consecutive zeros.  Zero runs are
    counted from the left end of the string (a leading one has an empty
    run before it).  Every placement of the ones is tried, so more than
    ``MAX_STRING_CANDIDATES`` placements raise :class:`FeasibilityError`
    before the first is generated.
    """
    _check_even_dimension(dimension)
    _check_index(dimension, index)
    ones = dimension // 2 + 1
    zeros = dimension * (index - 1) // 2
    length = ones + zeros
    candidates = math.comb(length, ones)
    if candidates > MAX_STRING_CANDIDATES:
        raise FeasibilityError(
            f"string enumeration too large: {candidates} candidate strings for "
            f"d={dimension}, i={index} (guard: <= {MAX_STRING_CANDIDATES})"
        )
    max_run = dimension // 2
    for positions in itertools.combinations(range(length), ones):
        previous = -1
        ok = True
        for which, position in enumerate(positions):
            if which < index - 1 and position - previous - 1 >= max_run:
                ok = False
                break
            previous = position
        if ok:
            bits = ["0"] * length
            for position in positions:
                bits[position] = "1"
            yield "".join(bits)


def count_constrained_strings(dimension: int, index: int) -> int:
    """Number of constrained strings, by direct enumeration.

    Equals ``(-1)**(index-1)`` times the exact layer coefficient for
    every even dimension.
    """
    return sum(1 for _ in enumerate_constrained_strings(dimension, index))


def count_constrained_paths(dimension: int, index: int) -> int:
    """Number of constrained lattice walks, by dynamic programming.

    Walks go from the origin to ``(dimension/2 + 1, dimension*(index-1)/2)``
    in unit right/up steps; at each x-coordinate in ``0..index-2`` fewer
    than ``dimension/2`` up steps may be taken.  The count is computed
    by recursion over (x-coordinate, up steps remaining) — a route
    independent of the string enumeration, to which it is equal under
    the 1 -> right, 0 -> up correspondence.
    """
    _check_even_dimension(dimension)
    _check_index(dimension, index)
    right_steps = dimension // 2 + 1
    up_steps = dimension * (index - 1) // 2
    max_run = dimension // 2

    @lru_cache(maxsize=None)
    def ways(x: int, ups_left: int) -> int:
        if x == right_steps:
            return 1  # the tail column absorbs all remaining up steps
        cap = min(ups_left, max_run - 1) if x <= index - 2 else ups_left
        return sum(ways(x + 1, ups_left - k) for k in range(cap + 1))

    return ways(0, up_steps)
