"""Binary-string and lattice-path counts for even dimensions.

For diagrams on an even number of points ``2j``, reading off which of
the odd points ``1, 3, ..., 2j-1`` are covered gives a binary string of
length ``j``; every diagram with ``n`` chords maps to a string with
exactly ``n`` ones, and every such string has exactly ``4**n``
preimages.  In even dimension ``d = 2h`` this turns the layer
coefficients into honest counts: the number of binary strings with
``h + 1`` ones and ``h*(i-1)`` zeros in which each of the first ``i-1``
ones is preceded by fewer than ``h`` consecutive zeros equals
``(-1)**(i-1) * C_i``, at every index.  Inclusion-exclusion over those
``i-1`` zero runs (Stanley, *EC1* §2.1) gives the count as
``sum_j (-1)**j * binom(i-1, j) * binom(h*(i-j) + 1, h + 1)``; a walk
with ``1`` as a right step and ``0`` as an up step gives it again by
dynamic programming, and the generator builds the strings for listing.
The projection and its ``4**n`` fibers are checked over enumerated
diagrams in ``tests/diagram_oracle.py``; nothing here builds a diagram.
"""

from __future__ import annotations

import math
from itertools import accumulate
from typing import Iterator

from .coefficients import FeasibilityError, _check_int, num_layers

__all__ = [
    "enumerate_constrained_strings",
    "count_constrained_strings",
    "count_constrained_paths",
    "MAX_STRING_CANDIDATES",
]

#: Size guard, checked before any work: every function here refuses a walk
#: of more than this many cells, ``(d/2 + 1) * (d*(i-1)/2 + 1)``, which
#: bounds the dynamic program and the string length; the generator also
#: refuses more strings than this (d = 14, i = 4 has 3,352,139).
MAX_STRING_CANDIDATES = 2_000_000


def _check_walk(dimension: int, index: int) -> tuple[int, int]:
    """The checked ``(dimension, index)``; a walk of more than
    ``MAX_STRING_CANDIDATES`` cells raises :class:`FeasibilityError`."""
    dimension = _check_int(dimension, "dimension", 2)
    if dimension % 2 != 0:
        raise ValueError(f"dimension must be an even integer >= 2, got {dimension}")
    index = _check_int(index, "layer index", 1, num_layers(dimension))
    cells = (dimension // 2 + 1) * (dimension * (index - 1) // 2 + 1)
    if cells > MAX_STRING_CANDIDATES:
        raise FeasibilityError(
            f"string walk too large: {cells} cells for d={dimension}, i={index} "
            f"(guard: <= {MAX_STRING_CANDIDATES})"
        )
    return dimension, index


def enumerate_constrained_strings(dimension: int, index: int) -> Iterator[str]:
    """Yield the constrained binary strings for ``(dimension, index)``.

    Strings have ``dimension/2 + 1`` ones and ``dimension*(index-1)/2``
    zeros; each of the first ``index - 1`` ones must be preceded by
    fewer than ``dimension/2`` consecutive zeros, counted from the left
    end of the string.  Only valid strings are built, by stepping
    through the zero run before each one in ascending order (the
    trailing run takes the rest), so they come in the order of their one
    positions.  More than ``MAX_STRING_CANDIDATES`` strings, by the
    closed-form count, raise :class:`FeasibilityError` before any is built.
    """
    dimension, index = _check_walk(dimension, index)
    count = _string_count(dimension, index)
    if count > MAX_STRING_CANDIDATES:
        raise FeasibilityError(
            f"string enumeration too large: {count} strings for "
            f"d={dimension}, i={index} (guard: <= {MAX_STRING_CANDIDATES})"
        )
    return _constrained_strings(dimension, index)


def _constrained_strings(dimension: int, index: int) -> Iterator[str]:
    half = dimension // 2
    ones = half + 1
    zeros = dimension * (index - 1) // 2
    caps = [half - 1 if k < index - 1 else zeros for k in range(ones)]
    runs = [0] * (ones - 1)  # the zero run before each one but the last
    used = 0  # zeros in those runs
    while True:
        head = "".join("0" * run + "1" for run in runs)
        rest = zeros - used
        for run in range(min(rest, caps[-1]) + 1):
            yield head + "0" * run + "1" + "0" * (rest - run)
        # lengthen the last run of the head that can grow; the runs after it restart at 0
        k = ones - 2
        while k >= 0 and (used == zeros or runs[k] == caps[k]):
            used -= runs[k]
            runs[k] = 0
            k -= 1
        if k < 0:
            return
        runs[k] += 1
        used += 1


def count_constrained_strings(dimension: int, index: int) -> int:
    """Number of constrained strings, by inclusion-exclusion.

    Equals ``(-1)**(index-1)`` times the exact layer coefficient for
    every even dimension.  It takes ``index`` binomials, and no string
    is built.
    """
    return _string_count(*_check_walk(dimension, index))


def _string_count(dimension: int, index: int) -> int:
    half = dimension // 2
    return sum(
        (-1) ** j * math.comb(index - 1, j) * math.comb(half * (index - j) + 1, half + 1)
        for j in range(index)
    )


def count_constrained_paths(dimension: int, index: int) -> int:
    """Number of constrained lattice walks, by dynamic programming.

    Walks go from the origin to ``(dimension/2 + 1, dimension*(index-1)/2)``
    in unit right/up steps; at each x-coordinate in ``0..index-2`` fewer
    than ``dimension/2`` up steps may be taken.  The count is built
    column by column from the right, over the up steps still to take,
    with a prefix sum for each column's window of step counts — a route
    independent of the closed form, to which it is equal under the
    1 -> right, 0 -> up correspondence.  It takes one integer addition
    per cell of the walk and no recursion.
    """
    dimension, index = _check_walk(dimension, index)
    right_steps = dimension // 2 + 1
    up_steps = dimension * (index - 1) // 2
    max_run = dimension // 2
    if up_steps == 0:
        return 1
    # ways[u]: walks from the current column on with u up steps left; the
    # tail column absorbs all remaining up steps
    ways = [1] * (up_steps + 1)
    for x in reversed(range(right_steps)):
        cap = max_run - 1 if x <= index - 2 else up_steps
        prefix = list(accumulate(ways, initial=0))
        ways = [prefix[u + 1] - prefix[max(0, u - cap)] for u in range(up_steps + 1)]
    return ways[up_steps]
