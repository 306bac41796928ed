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
instead of enumeration).  The projection and its ``4**n`` fibers are
checked over enumerated diagrams in ``tests/diagram_oracle.py``;
nothing here builds a diagram.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Iterator

from .coefficients import FeasibilityError, _check_int, num_layers

__all__ = [
    "enumerate_constrained_strings",
    "count_constrained_strings",
    "count_constrained_paths",
    "MAX_STRING_CANDIDATES",
]

#: Feasibility guard for string enumeration: the number of strings it
#: would generate, and the length of one string, checked before
#: generating.  d = 12, i = 6 has 1,459,296 strings; d = 14, i = 4 has
#: 3,352,139.
MAX_STRING_CANDIDATES = 2_000_000


def _check_even_dimension(dimension: int) -> int:
    dimension = _check_int(dimension, "dimension", 2)
    if dimension % 2 != 0:
        raise ValueError(f"dimension must be an even integer >= 2, got {dimension}")
    return dimension


def enumerate_constrained_strings(dimension: int, index: int) -> Iterator[str]:
    """Yield the constrained binary strings for ``(dimension, index)``.

    Strings have ``dimension/2 + 1`` ones and ``dimension*(index-1)/2``
    zeros; each of the first ``index - 1`` ones must be preceded by
    fewer than ``dimension/2`` consecutive zeros, counted from the left
    end of the string.  Only valid strings are built, by stepping
    through the zero run before each one in ascending order (the
    trailing run takes the rest), so they come in the order of their one
    positions.  More than ``MAX_STRING_CANDIDATES`` strings, or strings
    longer than that many characters, raise :class:`FeasibilityError`
    at once: a lower bound on the count that stops growing past the
    guard is checked first, and only when it stays under the guard is
    the exact count taken from :func:`count_constrained_paths`.
    """
    dimension = _check_even_dimension(dimension)
    index = _check_int(index, "layer index", 1, num_layers(dimension))
    length = dimension // 2 + 1 + dimension * (index - 1) // 2
    if length > MAX_STRING_CANDIDATES:
        raise FeasibilityError(
            f"string enumeration too large: strings of {length} characters for "
            f"d={dimension}, i={index} (guard: <= {MAX_STRING_CANDIDATES})"
        )
    too_many = _count_floor_exceeds(dimension, index, MAX_STRING_CANDIDATES)
    strings = None if too_many else count_constrained_paths(dimension, index)
    if too_many or strings > MAX_STRING_CANDIDATES:
        counted = f"more than {MAX_STRING_CANDIDATES}" if too_many else strings
        raise FeasibilityError(
            f"string enumeration too large: {counted} strings for "
            f"d={dimension}, i={index} (guard: <= {MAX_STRING_CANDIDATES})"
        )
    return _constrained_strings(dimension, index)


def _count_floor_exceeds(dimension: int, index: int, cap: int) -> bool:
    """Whether a lower bound on the number of constrained strings
    exceeds ``cap``; the bound is built only until it does, so this
    takes a few dozen integer steps.

    The zero runs before the first ``index - 1`` ones can each take any
    length in ``0..d/2 - 1`` (the trailing run absorbs the rest), which
    gives ``(d/2)**(index-1)`` strings; or those ones can open the
    string and the other ``d/2 + 2 - index`` ones stand anywhere among
    the zeros, which gives ``binom(zeros + free, free)`` strings.
    """
    half = dimension // 2
    zeros = dimension * (index - 1) // 2
    free = half + 2 - index
    power = 1
    for _ in range(index - 1):
        power *= half
        if power > cap:
            return True
    # binom(zeros + free, low), one factor at a time
    low, high = min(zeros, free), max(zeros, free)
    binomial = 1
    for j in range(1, low + 1):
        binomial = binomial * (high + j) // j
        if binomial > cap:
            return True
    return False


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
    """Number of constrained strings, by direct enumeration.

    Equals ``(-1)**(index-1)`` times the exact layer coefficient for
    every even dimension.
    """
    return sum(1 for _ in enumerate_constrained_strings(dimension, index))


def count_constrained_paths(dimension: int, index: int) -> int:
    """Number of constrained lattice walks, by dynamic programming.

    Walks go from the origin to ``(dimension/2 + 1, dimension*(index-1)/2)``
    in unit right/up steps; at each x-coordinate in ``0..index-2`` fewer
    than ``dimension/2`` up steps may be taken.  The count is built
    column by column from the right, over the up steps still to take,
    with a prefix sum for each column's window of step counts — a route
    independent of the string enumeration, to which it is equal under
    the 1 -> right, 0 -> up correspondence.  It takes
    ``O(dimension**2 * index)`` integer additions and no recursion.
    """
    dimension = _check_even_dimension(dimension)
    index = _check_int(index, "layer index", 1, num_layers(dimension))
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
