"""Command-line entry point.

Subcommands:
  compare     equal-budget comparison of plain vs tree-guided search
  falsify     repeated surrogate-assisted falsification trials
  indicators  score one archive CSV with the quality indicators
  replay      re-render an experiment's derived artifacts and compare bytes

Exit codes: 0 on success, 2 for configuration errors, 3 for runtime
failures (including replay mismatches).
"""

from __future__ import annotations

import argparse
import json
import sys

from . import harness

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sasbt",
        description="Search-based scenario testing and surrogate falsification.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_experiment(name: str, help_: str) -> None:
        p = sub.add_parser(name, help=help_)
        p.add_argument("--config", required=True, help="experiment config file")
        p.add_argument("--seed", type=int, default=None,
                       help="override experiment.base_seed")
        p.add_argument("--out", default=None,
                       help="output directory (default: ./out_<command>)")
        p.add_argument("--reps", type=int, default=None,
                       help="override experiment.repetitions")
        p.add_argument("--quiet", action="store_true", help="suppress progress lines")

    add_experiment("compare", "run the search comparison experiment")
    add_experiment("falsify", "run falsification trials")

    p = sub.add_parser("indicators", help="score an archive CSV")
    p.add_argument("archive", help="archive CSV produced by an experiment")
    p.add_argument("--out", default=None, help="write the scores as JSON here")

    p = sub.add_parser("replay", help="re-render an output directory's "
                       "derived files from its inputs and compare bytes")
    p.add_argument("directory", help="experiment output directory")
    return parser


def _load_config(args, kind: str) -> harness.ExperimentConfig:
    config = harness.ExperimentConfig.from_file(args.config)
    if config.kind != kind:
        raise harness.ConfigError(
            f"config is for {config.kind!r} but the {kind} command was invoked")
    if args.seed is not None:
        config.base_seed = args.seed
    if args.reps is not None:
        config.repetitions = args.reps
    return config


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command in ("compare", "falsify"):
            config = _load_config(args, args.command)
            out_dir = args.out or f"out_{args.command}"
            if args.command == "compare":
                harness.run_compare(config, out_dir, quiet=args.quiet)
            else:
                harness.run_falsify(config, out_dir, quiet=args.quiet)
        elif args.command == "indicators":
            scores = harness.score_archive(args.archive)
            text = json.dumps(scores, indent=2, sort_keys=True)
            print(text)
            if args.out:
                with open(args.out, "w", encoding="utf-8") as fh:
                    fh.write(text + "\n")
        elif args.command == "replay":
            if not harness.replay(args.directory):
                return EXIT_RUNTIME
    except harness.ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
