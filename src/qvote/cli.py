"""Command-line front end: run, verify, sweep, and attack scenario files.

Exit codes: 0 success (``--help`` included); 1 the command line or the
scenario is invalid (a usage error, an unreadable file, a command the scheme
does not support); 2 an invariant failed during the run, or an internal error
stopped it; 3 resource budget exceeded (a dense state, or a sweep's case count).
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from .runner import SweepBudgetError, emit_report, execute
from .scenario import BACKENDS, ScenarioError, parse_scenario
from .states import DenseBudgetError

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_INVARIANT = 2
EXIT_BUDGET = 3


class _UsageError(Exception):
    """A command-line usage error (argparse alone would exit 2 for it)."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(f"{message}\n{self.format_usage()}".rstrip())


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    common = _Parser(add_help=False)
    common.add_argument("scenario", type=Path, help="path to the scenario file")
    common.add_argument("--seed", type=int, default=None, help="override [run] seed")
    common.add_argument("--backend", choices=BACKENDS, default=None,
                        help="override [run] backend")
    common.add_argument("--out", type=Path, default=None, help="write the report here instead of stdout")
    common.add_argument("--format", choices=["text", "json-lines"], default="text", dest="fmt",
                        help="report format (default: text)")
    parser = _Parser(
        prog="qvote",
        description="Simulate anonymous-voting protocols, group multiplication, and attacks",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("run", "execute a scenario and report outcomes"),
        ("verify", "run the invariant suite for a scenario"),
        ("sweep", "exhaustively enumerate vote vectors for a scenario"),
        ("attack", "run an adversary scenario (requires an [attack] section)"),
    ]:
        sub.add_parser(name, help=help_text, parents=[common])
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    try:
        text = args.scenario.read_text(encoding="utf-8")
    except OSError as exc:
        print(f"error: cannot read scenario: {exc}", file=sys.stderr)
        return EXIT_VALIDATION

    try:
        cfg = parse_scenario(text)
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION

    if args.seed is not None:
        if args.seed < 0:
            print("scenario error: --seed requires a non-negative integer", file=sys.stderr)
            return EXIT_VALIDATION
        cfg.seed = args.seed
    if args.backend is not None:
        cfg.backend = args.backend
    if args.command == "attack" and cfg.attack is None:
        print("scenario error: 'attack' command needs an [attack] section", file=sys.stderr)
        return EXIT_VALIDATION

    command = "run" if args.command == "attack" else args.command
    try:
        report = execute(cfg, command=command)
    except SweepBudgetError as exc:
        print(f"budget error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except DenseBudgetError as exc:
        step = " in verify's dense-oracle ballot checks" if command == "verify" else ""
        hint = "" if step or cfg.backend == "branch" else " (hint: switch to backend = branch)"
        print(f"budget error{step}: {exc}{hint}", file=sys.stderr)
        return EXIT_BUDGET
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except ValueError as exc:  # the scenario was valid, so the program is at fault
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INVARIANT

    payload = emit_report(report, args.fmt)
    if args.out is not None:
        args.out.write_bytes(payload)
    else:
        sys.stdout.write(payload.decode("utf-8"))
    return EXIT_OK if report.passed else EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
