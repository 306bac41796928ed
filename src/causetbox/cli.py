"""Command-line interface.

Subcommands: ``coeffs`` (exact coefficient tables), ``enumerate``
(diagram counts and listings), ``verify`` (counting-identity and
cancellation checks over a parameter grid), ``strings`` (even-dimension
string/path counts), ``action`` (gravitational action of a causal set
file), and ``sprinkle`` (Monte Carlo box-operator estimates).  Each
subcommand returns its answer; :func:`run` renders it as CSV or JSON
and writes it, to stdout or ``--output``, in one place.  The parser is
built once per process, at import; each :func:`run` only parses.

Exit codes: 0 success, 1 verification mismatch, 2 invalid arguments,
3 infeasible size (an enumeration, a tally or a sprinkle over its guard),
4 internal error (any other exception, reported on one ``error:`` line).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import itertools
import json
import math
import sys
from collections.abc import Sequence
from typing import NamedTuple

import numpy as np

from . import coefficients, diagrams, evenstrings, sprinkling
from .causet import (
    _check_length_scale,
    _length_power,
    gravitational_action,
    load_causal_set,
)

__all__ = ["main", "run"]

EXIT_OK = 0
EXIT_VERIFY_MISMATCH = 1
EXIT_USAGE = 2
EXIT_INFEASIBLE = 3
EXIT_INTERNAL = 4


#: The most bytes of lines ``strings --list`` may print.  It holds them three
#: times (list, text, output): d = 12, i = 8, at 14.0 MB, peaks near 110 MB.
_MAX_LIST_BYTES = 16_000_000


class _CliError(Exception):
    """Invalid arguments detected after parsing."""


class _Answer(NamedTuple):
    """A subcommand's result: the JSON object, the CSV header and rows
    (empty where only JSON is offered), the lines listed after the CSV
    rows (``--list``), and the exit code."""

    payload: dict
    header: Sequence[str] = ()
    rows: Sequence[list] = ()
    lines: Sequence[str] = ()
    code: int = EXIT_OK


def _render(answer: _Answer, output_format: str) -> str:
    if output_format == "json":
        return json.dumps(answer.payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(answer.header)
    writer.writerows(answer.rows)
    return buffer.getvalue() + "".join(line + "\n" for line in answer.lines)


def _cmd_coeffs(args: argparse.Namespace) -> _Answer:
    # a limit below the library's own refuses the table before any product;
    # 0 is no limit, and interpreters before 3.10.7 have none to read
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if 0 < limit < coefficients._MAX_TABLE_DIGITS:
        digits = coefficients._table_digits(coefficients._check_int(args.dim, "dimension", 2))
        if digits > limit:
            raise coefficients.FeasibilityError(
                f"coefficient table too large to print: about {digits} digits for "
                f"d={args.dim} (guard: <= {limit}, the interpreter's integer string limit)"
            )
    table = coefficients.coefficient_table(args.dim)
    rows = [
        [table.dimension, i, entry.numerator, entry.denominator, scaled]
        for i, (entry, scaled) in enumerate(
            zip(table.entries, table.scaled_entries), start=1
        )
    ]
    payload = {
        "dimension": table.dimension,
        "coefficients": [
            {"i": i, "num": num, "den": den, "scaled": scaled}
            for _, i, num, den, scaled in rows
        ],
    }
    return _Answer(payload, ["d", "i", "num", "den", "scaled"], rows)


def _cmd_enumerate(args: argparse.Namespace) -> _Answer:
    elements = []
    if args.list:
        keys = diagrams.enumerate_diagrams(args.chords, args.points)
        texts = {  # each distinct chord is formatted once
            (low, high, color, first): f"chord {low}-{high} {color}"
            + ("" if first is None else f" {first}")
            for low, high, color, first in set(itertools.chain.from_iterable(keys))
        }
        head = str(args.points)
        elements = ["; ".join((head, *map(texts.__getitem__, key))) for key in keys]
        count = len(elements)
    else:
        count = diagrams.count_diagrams(args.chords, args.points)
    payload = {"chords": args.chords, "points": args.points, "count": count}
    if args.list:
        payload["elements"] = elements
    row = [args.chords, args.points, count]
    return _Answer(payload, ["chords", "points", "count"], [row], elements)


def _cmd_verify(args: argparse.Namespace) -> _Answer:
    if args.max_i is not None and args.max_i < 1:
        raise _CliError(f"--max-i must be >= 1, got {args.max_i}: no layer would be checked")
    rows = []
    for dim in args.dims or [2, 3, 4]:
        top = coefficients.num_layers(dim)  # refuses d < 2, which has no layer
        max_index = top if args.max_i is None else min(args.max_i, top)
        for index in range(1, max_index + 1):
            rows.append([dim, index, *diagrams.verify_layer(dim, index)])
    keys = ("dimension", "index", "count_identity", "cancellation")
    all_ok = all(count_ok and cancel_ok for _, _, count_ok, cancel_ok in rows)
    payload = {"results": [dict(zip(keys, row)) for row in rows], "all_ok": all_ok}
    code = EXIT_OK if all_ok else EXIT_VERIFY_MISMATCH
    return _Answer(payload, ["d", "i", "count_identity", "cancellation"], rows, code=code)


def _cmd_strings(args: argparse.Namespace) -> _Answer:
    strings = []
    if args.list:
        generated = evenstrings.enumerate_constrained_strings(args.dim, args.i)  # checks only
        size = evenstrings._string_count(args.dim, args.i) * (args.dim // 2 * args.i + 2)
        if size > _MAX_LIST_BYTES:
            raise coefficients.FeasibilityError(
                f"string listing too large: {size} bytes of lines for d={args.dim}, "
                f"i={args.i} (guard: <= {_MAX_LIST_BYTES})"
            )
        strings = list(generated)
        count = len(strings)
    else:
        count = evenstrings.count_constrained_strings(args.dim, args.i)
    paths = evenstrings.count_constrained_paths(args.dim, args.i)
    payload = {
        "dimension": args.dim,
        "index": args.i,
        "string_count": count,
        "path_count": paths,
    }
    if args.list:
        payload["strings"] = strings
    row = [args.dim, args.i, count, paths]
    return _Answer(payload, ["d", "i", "string_count", "path_count"], [row], strings)


def _cmd_action(args: argparse.Namespace) -> _Answer:
    causal_set = load_causal_set(args.input)
    return _Answer(dataclasses.asdict(gravitational_action(causal_set, args.dim, args.ell)))


def _cmd_sprinkle(args: argparse.Namespace) -> _Answer:
    density = args.density
    if args.ell is not None:
        _check_length_scale(args.ell)
        density = _length_power(args.ell, -args.dim, args.dim)
    config = sprinkling.DiamondConfig(
        dimension=args.dim,
        density=density,
        half_height=args.half_height,
        seed=args.seed,
    )
    spec = sprinkling.parse_field_spec(args.field)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):  # reported below
        mean, std_error = sprinkling.estimate_box(config, spec, args.trials)
    if not (math.isfinite(mean) and math.isfinite(std_error)):
        raise _CliError(
            f"the estimate is not finite (mean {mean}, std_error {std_error}): "
            "some trial's box value is infinite or NaN, as when the field is "
            "infinite or NaN at a sprinkled element"
        )
    payload = {
        "mean": mean,
        "std_error": std_error,
        "trials": args.trials,
        "density": density,
        "length_scale": config.length_scale,
    }
    return _Answer(payload)


def _add_common_flags(
    parser: argparse.ArgumentParser,
    default_format: str,
    formats: tuple[str, ...] = ("csv", "json"),
) -> None:
    parser.add_argument(
        "--format",
        choices=formats,
        default=default_format,
        help=f"output format (default {default_format})",
    )
    parser.add_argument("--output", default=None, help="write to file instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="causetbox",
        description="Causal-set d'Alembertian coefficients, diagram/string counts, "
        "and the discrete operator and action.",
    )
    subparsers = parser.add_subparsers(dest="subcommand", required=True)

    coeffs = subparsers.add_parser("coeffs", help="exact layer coefficients")
    coeffs.add_argument("--dim", type=int, required=True)
    _add_common_flags(coeffs, "csv")
    coeffs.set_defaults(handler=_cmd_coeffs)

    enum = subparsers.add_parser("enumerate", help="diagram enumeration")
    enum.add_argument("--chords", type=int, required=True)
    enum.add_argument("--points", type=int, required=True)
    enum.add_argument("--list", action="store_true", help="also list every element")
    _add_common_flags(enum, "csv")
    enum.set_defaults(handler=_cmd_enumerate)

    verify = subparsers.add_parser(
        "verify", help="counting-identity and cancellation checks"
    )
    verify.add_argument(
        "--dim",
        type=int,
        action="append",
        dest="dims",
        help="dimension to check (repeatable; default 2 3 4)",
    )
    verify.add_argument("--max-i", type=int, default=None)
    _add_common_flags(verify, "json")
    verify.set_defaults(handler=_cmd_verify)

    strings = subparsers.add_parser("strings", help="even-dimension string counts")
    strings.add_argument("--dim", type=int, required=True)
    strings.add_argument("--i", type=int, required=True)
    strings.add_argument("--list", action="store_true", help="also list the strings")
    _add_common_flags(strings, "csv")
    strings.set_defaults(handler=_cmd_strings)

    action = subparsers.add_parser("action", help="gravitational action of a causal set")
    action.add_argument("--input", required=True, help="JSON file with n and relations")
    action.add_argument("--dim", type=int, required=True)
    action.add_argument("--ell", type=float, required=True)
    _add_common_flags(action, "json", formats=("json",))
    action.set_defaults(handler=_cmd_action)

    sprinkle = subparsers.add_parser("sprinkle", help="Monte Carlo box estimate")
    sprinkle.add_argument("--dim", type=int, required=True)
    scale = sprinkle.add_mutually_exclusive_group(required=True)
    scale.add_argument("--density", type=float)
    scale.add_argument("--ell", type=float)
    sprinkle.add_argument("--half-height", type=float, default=1.0)
    sprinkle.add_argument("--trials", type=int, default=100)
    sprinkle.add_argument("--field", default="const:1")
    sprinkle.add_argument("--seed", type=int, default=0)
    _add_common_flags(sprinkle, "json", formats=("json",))
    sprinkle.set_defaults(handler=_cmd_sprinkle)

    return parser


_PARSER = build_parser()


def run(argv: list[str] | None = None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        answer = args.handler(args)
        text = _render(answer, args.format)
        if args.output is None:
            sys.stdout.write(text)
        else:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(text)
        return answer.code
    except coefficients.FeasibilityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (_CliError, ValueError, OverflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # a fault of the program, not of the input
        detail = " ".join(str(exc).split())
        print(f"error: internal error: {type(exc).__name__}: {detail}", file=sys.stderr)
        return EXIT_INTERNAL


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
