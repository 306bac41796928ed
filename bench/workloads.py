"""The benchmark's workloads: inputs, the calls one operation makes, and oracles.

Input generation and the oracles use only numpy and the standard library,
never ``causetbox``: a change to the package can change neither its own
inputs nor the checks its outputs must pass.  Each workload is described
by a *plan*, a JSON-serialisable dict the worker process executes:

* ``calls``: the calls one operation makes, in order.  A call is either
  ``{"argv": [...], "rc": expected_exit_code}`` for ``causetbox.cli.run``
  (the worker appends ``--output <file>``) or ``{"series": [max_x, max_y]}``
  for ``causetbox.genseries.diagram_series``, the one computation with no
  subcommand.  The token ``{seed}`` in an argv is replaced by the
  operation's seed, ``base_seed + op index``.
* ``repeats``: how many timed operations the worker runs a second time
  after the timed window, for the bit-reproducibility oracle.
* ``once``: dimensions at which the worker counts the restricted class at
  layer 3 through the library, once per run, after the timed window.

``check_call`` maps the output of one call to a list of problems; an empty
list means the call is correct.
"""

from __future__ import annotations

import csv
import io
import json
import math
from fractions import Fraction

import numpy as np

WORKLOADS = ("mc_box", "action_file", "verify_grid", "tables")

# Full sizes are the benchmark; "tiny" sizes exist for bench/smoke.py only.
SIZES = {
    "full": {
        "trials": 20,
        "action_n": 500,
        "verify_dims": (2, 3, 4),
        "coeff_dims": range(2, 41),
        "string_dims": range(2, 11, 2),
        "enumerate": (4, 12),
        "series": (32, 96),
        "probe_n": (250, 500, 1000, 2000),
    },
    "tiny": {
        "trials": 2,
        "action_n": 40,
        "verify_dims": (2,),
        "coeff_dims": range(2, 6),
        "string_dims": (2, 4),
        "enumerate": (2, 6),
        "series": (4, 10),
        "probe_n": (50, 100),
    },
}

# Literature values of the operator constants and layer coefficients:
# Benincasa & Dowker 2010 (d=2, d=4) and Dowker & Glaser 2013 (d=3).
LITERATURE = {
    2: {"alpha": -2.0, "beta": 4.0, "C": (1, -2, 1)},
    3: {"C": (1, Fraction(-27, 8), Fraction(9, 4))},
    4: {"alpha": -4 / math.sqrt(6), "beta": 4 / math.sqrt(6), "C": (1, -9, 16, -8)},
}

# Restricted-class counts at layer 3 for d = 2, 3, 4 (README, "Known deviations").
RESTRICTED_AT_LAYER_3 = {2: 20, 3: 42, 4: 1112}

ACTION_ELL = 0.1


# --- inputs -------------------------------------------------------------------


def diamond_coords(rng: np.random.Generator, dim: int, n: int) -> np.ndarray:
    """``n`` uniform points in the unit-height Minkowski diamond, sorted by time."""
    batches, have = [], 0
    while have < n:
        points = rng.uniform(-1.0, 1.0, size=(2 * n + 16, dim))
        radius = np.linalg.norm(points[:, 1:], axis=1)
        keep = points[radius <= 1.0 - np.abs(points[:, 0])]
        batches.append(keep)
        have += len(keep)
    points = np.concatenate(batches)[:n]
    return points[np.argsort(points[:, 0], kind="stable")]


def minkowski_order(coords: np.ndarray) -> np.ndarray:
    """``P[a, b]`` iff ``b`` is in the causal future of ``a`` (lightlike counts)."""
    dt = coords[None, :, 0] - coords[:, None, 0]
    dx = np.linalg.norm(coords[None, :, 1:] - coords[:, None, 1:], axis=2)
    return (dt >= dx) & (dt > 0)


def interval_interiors(order: np.ndarray) -> np.ndarray:
    """``B = P @ P``: elements strictly between each pair.  float64 is exact
    for counts below 2**53."""
    as_float = order.astype(np.float64)
    return as_float @ as_float


def abundances(order: np.ndarray, top: int) -> list[int]:
    between = interval_interiors(order)[order]
    return [int(np.count_nonzero(between == i - 1)) for i in range(1, top + 1)]


def prepare(name: str, seed: int, workdir, size: str = "full") -> tuple[dict, dict]:
    """Build the inputs of one run.  Returns ``(plan, context)``: the plan goes
    to the worker, the context stays with the oracle."""
    sizes = SIZES[size]
    if name == "mc_box":
        argv = ["sprinkle", "--dim", "2", "--density", "100", "--trials",
                str(sizes["trials"]), "--field", "mono:2", "--seed", "{seed}"]
        plan = {"calls": [{"argv": argv, "rc": 0}], "base_seed": seed, "repeats": 5}
        return plan, {"trials": sizes["trials"]}
    if name == "action_file":
        rng = np.random.default_rng(seed)
        calls, expected = [], []
        for dim in (2, 4):
            coords = diamond_coords(rng, dim, sizes["action_n"])
            order = minkowski_order(coords)
            full = np.argwhere(order)
            links = np.argwhere(order & (interval_interiors(order) == 0))
            truth = action_truth(order, dim)
            for kind, pairs in (("links", links), ("full", full)):
                path = workdir / f"diamond-d{dim}-{kind}.json"
                with open(path, "w", encoding="utf-8") as handle:
                    json.dump({"n": len(coords), "relations": pairs.tolist()}, handle)
                calls.append({"argv": ["action", "--input", str(path), "--dim", str(dim),
                                       "--ell", str(ACTION_ELL)], "rc": 0})
                expected.append(truth)
        plan = {"calls": calls, "base_seed": seed, "repeats": 0, "probe_n": sizes["probe_n"]}
        return plan, {"expected": expected}
    if name == "verify_grid":
        argv = ["verify"]
        for dim in sizes["verify_dims"]:
            argv += ["--dim", str(dim)]
        argv += ["--max-i", "3"]
        plan = {"calls": [{"argv": argv, "rc": 1}], "base_seed": seed, "repeats": 0,
                "once": list(sizes["verify_dims"])}
        return plan, {"dims": tuple(sizes["verify_dims"])}
    if name == "tables":
        calls = [{"argv": ["coeffs", "--dim", str(d)], "rc": 0} for d in sizes["coeff_dims"]]
        calls += [{"argv": ["strings", "--dim", str(d), "--i", str(i)], "rc": 0}
                  for d in sizes["string_dims"] for i in range(1, d // 2 + 3)]
        chords, points = sizes["enumerate"]
        calls.append({"argv": ["enumerate", "--chords", str(chords), "--points", str(points),
                               "--list"], "rc": 0})
        calls.append({"series": list(sizes["series"])})
        return {"calls": calls, "base_seed": seed, "repeats": 0}, {}
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")


# --- oracles ------------------------------------------------------------------


def _gamma_half(twice: int) -> tuple[Fraction, int]:
    """Gamma(twice / 2) as ``(q, k)`` meaning ``q * sqrt(pi)**k``."""
    if twice % 2 == 0:
        return Fraction(math.factorial(twice // 2 - 1)), 0
    n = (twice - 1) // 2  # Gamma(n + 1/2) = (2n)! / (4**n n!) sqrt(pi)
    return Fraction(math.factorial(2 * n), 4**n * math.factorial(n)), 1


def layer_coefficients(dim: int) -> list[Fraction]:
    """C_1 .. C_(d//2+2) from the closed form of Glaser 2014."""
    shift = 4 if dim % 2 == 0 else 3
    fixed, fixed_k = _gamma_half(dim + shift)
    out = []
    for i in range(1, dim // 2 + 3):
        total = Fraction(0)
        for k in range(i):
            top, top_k = _gamma_half(dim * (k + 1) + shift)
            low, low_k = _gamma_half(dim * k + 2)
            if top_k != fixed_k + low_k:
                raise ArithmeticError(f"sqrt(pi) factors do not cancel at d={dim}, k={k}")
            total += math.comb(i - 1, k) * (-1) ** k * top / (fixed * low)
        out.append(total)
    return out


def series_coefficient(n: int, m: int) -> int:
    """Coefficient of x**n y**m in the diagram generating function, from its
    even and odd closed forms."""
    i, odd = divmod(m, 2)
    if not odd:
        return 4**n * math.comb(i, n) if i > 0 else 0
    if i < n:
        return 0
    return math.prod(4 * (i - n) + 4 * level + 2 for level in range(1, n + 1)) // math.factorial(n)


def action_truth(order: np.ndarray, dim: int) -> dict:
    """Abundances and action of a causal set given by its full order matrix."""
    constants = LITERATURE[dim]
    counts = abundances(order, len(constants["C"]))
    weighted = sum(c * n for c, n in zip(constants["C"], counts))
    n = order.shape[0]
    action = -constants["alpha"] * ACTION_ELL ** (dim - 2) * (
        n + constants["beta"] / constants["alpha"] * weighted)
    return {"dimension": dim, "size": n, "abundances": counts, "action": action}


def _csv_rows(text: str) -> list[list[str]]:
    return list(csv.reader(io.StringIO(text)))


def _check_action(text: str, truth: dict) -> list[str]:
    got = json.loads(text)
    problems = []
    for key in ("dimension", "size", "abundances"):
        if got.get(key) != truth[key]:
            problems.append(f"action {key}: got {got.get(key)!r}, expected {truth[key]!r}")
    if got.get("length_scale") != ACTION_ELL:
        problems.append(f"action length_scale: got {got.get('length_scale')!r}")
    action = got.get("action")
    if not isinstance(action, float) or not math.isclose(action, truth["action"],
                                                         rel_tol=1e-9, abs_tol=1e-9):
        problems.append(f"action value: got {action!r}, expected {truth['action']!r}")
    return problems


def _check_sprinkle(text: str, trials: int) -> list[str]:
    got = json.loads(text)
    problems = []
    if sorted(got) != ["density", "length_scale", "mean", "std_error", "trials"]:
        problems.append(f"sprinkle keys: {sorted(got)}")
    if got.get("trials") != trials or got.get("density") != 100.0:
        problems.append(f"sprinkle echo: trials {got.get('trials')!r}, density {got.get('density')!r}")
    if not math.isclose(got.get("length_scale", 0.0), 0.1, rel_tol=1e-12):
        problems.append(f"sprinkle length_scale: {got.get('length_scale')!r}")
    mean, err = got.get("mean"), got.get("std_error")
    if not (isinstance(mean, float) and math.isfinite(mean)):
        problems.append(f"sprinkle mean: {mean!r}")
    if not (isinstance(err, float) and math.isfinite(err) and err >= 0):
        problems.append(f"sprinkle std_error: {err!r}")
    return problems


def _check_verify(text: str, dims: tuple[int, ...]) -> list[str]:
    got = json.loads(text)
    cells = {(r["dimension"], r["index"]): r for r in got.get("results", [])}
    problems = []
    expected_cells = {(d, i) for d in dims for i in range(1, min(3, d // 2 + 2) + 1)}
    if set(cells) != expected_cells:
        problems.append(f"verify cells: got {sorted(cells)}")
    for (d, i), row in cells.items():
        holds = i <= 2  # the identity fails at layer 3 in every checked dimension
        if row.get("count_identity") is not holds or row.get("cancellation") is not holds:
            problems.append(f"verify cell ({d},{i}): {row}")
    if got.get("all_ok") is not False:
        problems.append(f"verify all_ok: {got.get('all_ok')!r}")
    return problems


def _check_coeffs(text: str, dim: int) -> list[str]:
    rows = _csv_rows(text)
    if rows[:1] != [["d", "i", "num", "den", "scaled"]]:
        return [f"coeffs d={dim}: header {rows[:1]}"]
    expected = layer_coefficients(dim)
    got = [(int(d), int(i), Fraction(int(num), int(den)), int(scaled))
           for d, i, num, den, scaled in rows[1:]]
    scale = 2 ** (2 * (dim // 2) + 2)
    want = [(dim, i, c, int(c * scale)) for i, c in enumerate(expected, start=1)]
    problems = [] if got == want else [f"coeffs d={dim}: got {got}, expected {want}"]
    literature = LITERATURE.get(dim, {}).get("C")
    if literature is not None and tuple(expected) != literature:
        problems.append(f"coefficient oracle disagrees with literature at d={dim}")
    return problems


def _check_strings(text: str, dim: int, index: int) -> list[str]:
    rows = _csv_rows(text)
    magnitude = abs(layer_coefficients(dim)[index - 1])
    want = [["d", "i", "string_count", "path_count"], [str(dim), str(index), str(magnitude), str(magnitude)]]
    return [] if rows == want else [f"strings d={dim} i={index}: got {rows}, expected {want}"]


def _parse_diagram(line: str) -> tuple[int, list[tuple[int, int, str, int | None]]]:
    """``"12; chord 1-4 red 4; chord 2-3 black"`` -> ``(12, [(1, 4, "red", 4), ...])``."""
    head, *parts = line.split("; ")
    chords = []
    for part in parts:
        word, span, color, *first = part.split(" ")
        low, high = span.split("-")
        if word != "chord" or len(first) > 1:
            raise ValueError(f"malformed chord {part!r}")
        chords.append((int(low), int(high), color, int(first[0]) if first else None))
    return int(head), chords


def _valid_diagram(points: int, chords: list[tuple[int, int, str, int | None]]) -> bool:
    """The class conditions of a colored noncrossing chord diagram."""
    ends = [p for low, high, _, _ in chords for p in (low, high)]
    if len(set(ends)) != len(ends) or not all(1 <= p <= points for p in ends):
        return False
    for a in chords:
        for b in chords:
            if a[0] < b[0] < a[1] < b[1]:
                return False
    black = [(low, high) for low, high, color, first in chords if color == "black" and first is None]
    colored = [(low, high, first) for low, high, color, first in chords
               if color in ("red", "blue") and first in (low, high)]
    if len(black) + len(colored) != len(chords):
        return False
    covered = {p for chord in black for p in chord}
    insides = []
    for low, high, first in colored:
        inside = set(range(low + 1, high)) if first == low else (
            set(range(1, points + 1)) - set(range(low, high + 1)))
        if not inside <= covered:
            return False
        insides.append(inside)
    if any(not any({low, high} <= inside for inside in insides) for low, high in black):
        return False
    return not any({low, high} <= inside for low, high, _ in colored for inside in insides)


def _check_enumerate(text: str, chords: int, points: int) -> list[str]:
    """Complete oracle: ``count`` distinct valid diagrams, where ``count`` is
    the number of valid diagrams, are exactly the set of all of them."""
    lines = text.splitlines()
    count = series_coefficient(chords, points)
    problems = []
    if lines[:2] != ["chords,points,count", f"{chords},{points},{count}"]:
        problems.append(f"enumerate header: {lines[:2]}, expected count {count}")
    listed = lines[2:]
    if len(listed) != count or len(set(listed)) != len(listed):
        problems.append(f"enumerate list: {len(listed)} lines, {len(set(listed))} distinct, "
                        f"expected {count}")
    for line in listed:
        size, parsed = _parse_diagram(line)
        if size != points or len(parsed) != chords or not _valid_diagram(points, parsed):
            problems.append(f"enumerate list: invalid diagram {line!r}")
            break
    return problems


def _check_series(text: str, max_x: int, max_y: int) -> list[str]:
    got = json.loads(text)
    want = [[series_coefficient(n, m) for m in range(max_y + 1)] for n in range(max_x + 1)]
    if got == want:
        return []
    bad = [(n, m) for n in range(max_x + 1) for m in range(max_y + 1)
           if n >= len(got) or m >= len(got[n]) or got[n][m] != want[n][m]]
    return [f"series: {len(bad)} coefficients differ, first at {bad[:3]}"]


def check_call(name: str, plan: dict, ctx: dict, index: int, text: str) -> list[str]:
    """Problems with the output of call ``index`` of one operation."""
    call = plan["calls"][index]
    try:
        if name == "mc_box":
            return _check_sprinkle(text, ctx["trials"])
        if name == "action_file":
            return _check_action(text, ctx["expected"][index])
        if name == "verify_grid":
            return _check_verify(text, ctx["dims"])
        if "series" in call:
            return _check_series(text, *call["series"])
        argv = call["argv"]
        flags = dict(zip(argv[1::2], argv[2::2]))
        if argv[0] == "coeffs":
            return _check_coeffs(text, int(flags["--dim"]))
        if argv[0] == "strings":
            return _check_strings(text, int(flags["--dim"]), int(flags["--i"]))
        return _check_enumerate(text, int(flags["--chords"]), int(flags["--points"]))
    except (ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
        return [f"call {index}: unparseable output ({type(exc).__name__}: {exc})"]


def check_once(name: str, ctx: dict, result) -> list[str]:
    """Problems with the once-per-run library check."""
    if name != "verify_grid":
        return []
    want = {str(d): RESTRICTED_AT_LAYER_3[d] for d in ctx["dims"]}
    return [] if result == want else [f"restricted counts at layer 3: got {result}, expected {want}"]
