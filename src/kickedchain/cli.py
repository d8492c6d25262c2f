"""Command-line entry point.

    kickedchain <experiment> [--config FILE] [--set key=value ...] [--out DIR]

Exit codes: 0 success, 1 configuration, output-path or other run error
(such as too few detected modes for a fit), 2 snapshot memory budget
exceeded, 3 validation-suite failure, 130 interrupted (Ctrl-C).  Every
error is one line on stderr, and so is every warning a run raises:
``warning: <Category>: <message>``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import warnings

from .config import EXPERIMENTS, parse_config
from .errors import ConfigError, KickedChainError, MemoryBudgetError
from .experiments import run_experiment


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; 2 is reserved for
    # capacity errors here, and a bad command line is a config problem.
    def error(self, message: str):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _warning_line(message, category, filename, lineno, file=None, line=None) -> None:
    # Replaces warnings.showwarning: the category and message, no source line.
    print(f"warning: {category.__name__}: {message}", file=sys.stderr)


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="kickedchain",
        description="Run one kicked-chain experiment and write its artifacts.",
    )
    parser.add_argument("experiment", help=f"one of: {', '.join(EXPERIMENTS)}")
    parser.add_argument("--config", metavar="FILE", help="key = value configuration file")
    parser.add_argument(
        "--set",
        metavar="KEY=VALUE",
        action="append",
        default=[],
        dest="overrides",
        help="override one configuration key (repeatable)",
    )
    parser.add_argument("--out", metavar="DIR", help="output directory (overrides config)")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        text = ""
        if args.config is not None:
            # ValueError: the file is not UTF-8, or the path holds a NUL; a BOM is dropped.
            try:
                with open(args.config, encoding="utf-8-sig") as fh:
                    text = fh.read()
            except (OSError, ValueError) as exc:
                raise ConfigError(f"cannot read config file {args.config!r}: {exc}") from exc
        # The positional experiment and --out are two more overrides, applied
        # last, so every key has one rule.
        overrides = [*args.overrides, f"experiment={args.experiment}"]
        if args.out is not None:
            overrides.append(f"output_dir={args.out}")
        cfg = parse_config(text, overrides)
        with warnings.catch_warnings():
            warnings.showwarning = _warning_line
            manifest = run_experiment(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except MemoryBudgetError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return 2
    except KickedChainError as exc:
        print(f"run error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130

    for filename, digest in manifest.files.items():
        print(f"wrote {os.path.join(manifest.output_dir, filename)}  sha256={digest[:12]}")
    print(f"wrote {os.path.join(manifest.output_dir, 'manifest.json')}")

    if cfg.experiment == "validate":
        with open(os.path.join(cfg.output_dir, "validation.json"), encoding="utf-8") as fh:
            report = json.load(fh)
        for check in report["checks"]:
            status = "pass" if check["passed"] else "FAIL"
            # The file stores a raising check's infinite deviation as null.
            deviation = float("inf") if check["deviation"] is None else check["deviation"]
            print(
                f"  {status}  {check['name']}: deviation {deviation:.3e}"
                f" (tolerance {check['tolerance']:.0e})"
                f"  margin {deviation / check['tolerance']:.2e}"
            )
        if not report["passed"]:
            return 3
    return 0
