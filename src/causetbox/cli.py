"""Command-line interface.

Subcommands: ``coeffs`` (exact coefficient tables), ``enumerate``
(diagram counts and listings), ``verify`` (counting-identity and
cancellation checks over a parameter grid), ``strings`` (even-dimension
string/path counts), ``action`` (gravitational action of a causal set
file), and ``sprinkle`` (Monte Carlo box-operator estimates).

Exit codes: 0 success, 1 verification mismatch, 2 invalid arguments,
3 infeasible size (an enumeration, a tally or a sprinkle over its guard).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys

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


class _CliError(Exception):
    """Invalid arguments detected after parsing."""


def _write_output(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)


def _csv_text(rows: list[list], header: list[str]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue()


def _json_text(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _cmd_coeffs(args: argparse.Namespace) -> int:
    table = coefficients.coefficient_table(args.dim)
    rows = [
        [table.dimension, i, entry.numerator, entry.denominator, scaled]
        for i, (entry, scaled) in enumerate(
            zip(table.entries, table.scaled_entries), start=1
        )
    ]
    if (args.format or "csv") == "csv":
        text = _csv_text(rows, ["d", "i", "num", "den", "scaled"])
    else:
        text = _json_text(
            {
                "dimension": table.dimension,
                "coefficients": [
                    {"i": i, "num": num, "den": den, "scaled": scaled}
                    for _, i, num, den, scaled in rows
                ],
            }
        )
    _write_output(text, args.output)
    return EXIT_OK


def _format_element(diagram: diagrams.ChordDiagram) -> str:
    parts = [str(diagram.points)]
    for chord in diagram.chords:
        desc = f"chord {chord.low}-{chord.high} {chord.color}"
        if chord.first_end is not None:
            desc += f" {chord.first_end}"
        parts.append(desc)
    return "; ".join(parts)


def _cmd_enumerate(args: argparse.Namespace) -> int:
    if args.list:
        elements = diagrams.enumerate_diagrams(args.chords, args.points)
        count = len(elements)
    else:
        count = diagrams.count_diagrams(args.chords, args.points)
    if (args.format or "csv") == "csv":
        text = _csv_text([[args.chords, args.points, count]], ["chords", "points", "count"])
        if args.list:
            text += "".join(_format_element(e) + "\n" for e in elements)
    else:
        payload = {"chords": args.chords, "points": args.points, "count": count}
        if args.list:
            payload["elements"] = [_format_element(e) for e in elements]
        text = _json_text(payload)
    _write_output(text, args.output)
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    results = []
    all_ok = True
    for dim in args.dims:
        top = dim // 2 + 2
        max_index = top if args.max_i is None else min(args.max_i, top)
        for index in range(1, max_index + 1):
            count_ok, cancel_ok = diagrams.verify_layer(dim, index)
            all_ok = all_ok and count_ok and cancel_ok
            results.append(
                {
                    "dimension": dim,
                    "index": index,
                    "count_identity": count_ok,
                    "cancellation": cancel_ok,
                }
            )
    if (args.format or "json") == "csv":
        rows = [
            [r["dimension"], r["index"], r["count_identity"], r["cancellation"]]
            for r in results
        ]
        text = _csv_text(rows, ["d", "i", "count_identity", "cancellation"])
    else:
        text = _json_text({"results": results, "all_ok": all_ok})
    _write_output(text, args.output)
    return EXIT_OK if all_ok else EXIT_VERIFY_MISMATCH


def _cmd_strings(args: argparse.Namespace) -> int:
    count = evenstrings.count_constrained_strings(args.dim, args.i)
    paths = evenstrings.count_constrained_paths(args.dim, args.i)
    payload = {
        "dimension": args.dim,
        "index": args.i,
        "string_count": count,
        "path_count": paths,
    }
    if args.list:
        payload["strings"] = list(
            evenstrings.enumerate_constrained_strings(args.dim, args.i)
        )
    if (args.format or "csv") == "csv":
        text = _csv_text(
            [[args.dim, args.i, count, paths]],
            ["d", "i", "string_count", "path_count"],
        )
        if args.list:
            text += "".join(s + "\n" for s in payload["strings"])
    else:
        text = _json_text(payload)
    _write_output(text, args.output)
    return EXIT_OK


def _cmd_action(args: argparse.Namespace) -> int:
    causal_set = load_causal_set(args.input)
    report = gravitational_action(causal_set, args.dim, args.ell)
    _write_output(_json_text(report.to_dict()), args.output)
    return EXIT_OK


def _cmd_sprinkle(args: argparse.Namespace) -> int:
    if (args.density is None) == (args.ell is None):
        raise _CliError("provide exactly one of --density and --ell")
    if args.ell is not None:
        _check_length_scale(args.ell)
        density = _length_power(args.ell, -args.dim, args.dim)
    else:
        density = args.density
    config = sprinkling.DiamondConfig(
        dimension=args.dim,
        density=density,
        half_height=args.half_height,
        seed=args.seed,
    )
    spec = sprinkling.parse_field_spec(args.field)
    with np.errstate(divide="ignore", invalid="ignore"):  # the check below reports it
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
    _write_output(_json_text(payload), args.output)
    return EXIT_OK


def _add_common_flags(parser: argparse.ArgumentParser, default_format: str) -> None:
    parser.add_argument(
        "--format",
        choices=("csv", "json"),
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
    _add_common_flags(action, "json")
    action.set_defaults(handler=_cmd_action)

    sprinkle = subparsers.add_parser("sprinkle", help="Monte Carlo box estimate")
    sprinkle.add_argument("--dim", type=int, required=True)
    sprinkle.add_argument("--density", type=float, default=None)
    sprinkle.add_argument("--ell", type=float, default=None)
    sprinkle.add_argument("--half-height", type=float, default=1.0)
    sprinkle.add_argument("--trials", type=int, default=100)
    sprinkle.add_argument("--field", default="const:1")
    sprinkle.add_argument("--seed", type=int, default=0)
    _add_common_flags(sprinkle, "json")
    sprinkle.set_defaults(handler=_cmd_sprinkle)

    return parser


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    if getattr(args, "subcommand", None) == "verify" and not args.dims:
        args.dims = [2, 3, 4]
    try:
        return args.handler(args)
    except coefficients.FeasibilityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (_CliError, ValueError, OverflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
