"""Command line front end.

Verbs: ``run`` (one experiment), ``sweep`` (one experiment per parameter
value), ``analyze`` (reports from existing logs), ``validate-config``
(check a flat config file), ``replay`` (re-execute a log's decisions, check the rest).

Exit codes: 0 success, 2 configuration error, 3 runtime fault,
4 analysis or replay error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .core import ConfigError, GameConfig
from .gamelog import GameLog, LogError, ReplayError, replay
from .gateway import GatewayConfig
from .harness import PRESETS, analyze, run_experiment, sweep
from .metrics import MetricsError


def _add_gateway_args(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("gateway", "LLM gateway settings, needed "
                                      "only when a policy assignment uses 'llm'")
    group.add_argument("--endpoint", help="chat-completion endpoint URL")
    group.add_argument("--model", help="model name sent in each request")
    group.add_argument("--api-key-env", default="ARENA_API_KEY",
                       help="environment variable holding the bearer token "
                            "(default: %(default)s)")
    group.add_argument("--temperature", type=float, default=1.0,
                       help="sampling temperature (default: %(default)s)")
    group.add_argument("--max-tokens", type=int, default=256,
                       help="completion length limit (default: %(default)s)")
    group.add_argument("--gateway-timeout", type=float, default=60.0,
                       help="per-request timeout in seconds (default: %(default)s)")
    group.add_argument("--gateway-retries", type=int, default=4,
                       help="retries for transient failures (default: %(default)s)")


def _add_run_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--preset", default="P1", choices=sorted(PRESETS),
                        help="experiment preset (default: %(default)s)")
    parser.add_argument("--set", dest="overrides", action="append", default=[],
                        metavar="KEY=VALUE", help="override one config field; "
                        "repeatable; requires --ack-overrides")
    parser.add_argument("--ack-overrides", action="store_true",
                        help="confirm that --set overrides are intentional")
    parser.add_argument("--seed", type=int, help="replace the preset seed")
    parser.add_argument("--policies", help="policy assignment: llm | "
                        "scripted:<name> | mixed:<ids=name,...> | "
                        "byrole:provider=<name>,chooser=<name>")
    parser.add_argument("--out", type=Path, help="directory for run artifacts")
    _add_gateway_args(parser)


def _parse_overrides(pairs: list[str]) -> dict[str, str]:
    overrides: dict[str, str] = {}
    problems = []
    for pair in pairs:
        key, eq, value = pair.partition("=")
        key, value = key.strip(), value.strip()
        if not eq or not key:
            problems.append(f"bad --set {pair!r}; expected KEY=VALUE")
        elif key in overrides:
            problems.append(f"--set names {key!r} twice")
        else:
            overrides[key] = value
    if problems:
        raise ConfigError(problems)
    return overrides


def _gateway_from_args(args: argparse.Namespace) -> GatewayConfig | None:
    if args.endpoint is None and args.model is None:
        return None
    if args.endpoint is None or args.model is None:
        raise ConfigError(["--endpoint and --model must be given together"])
    try:
        return GatewayConfig(endpoint_url=args.endpoint, model_name=args.model,
                             api_key_env_var=args.api_key_env,
                             request_timeout=args.gateway_timeout,
                             max_retries=args.gateway_retries,
                             temperature=args.temperature,
                             max_tokens=args.max_tokens)
    except ValueError as exc:
        raise ConfigError([f"gateway: {exc}"]) from exc


def _cmd_run(args: argparse.Namespace) -> int:
    run_experiment(args.preset, _parse_overrides(args.overrides),
                   seed=args.seed, policies=args.policies, out_dir=args.out,
                   ack_overrides=args.ack_overrides,
                   gateway=_gateway_from_args(args), echo=print)
    return 0


def _parse_sweep_values(text: str | None) -> list[object] | None:
    if text is None:
        return None
    values: list[object] = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            values.append(int(part))
        except ValueError:
            values.append(part)
    return values


def _cmd_sweep(args: argparse.Namespace) -> int:
    sweep(args.preset, args.param, _parse_sweep_values(args.values),
          seed=args.seed, policies=args.policies, out_dir=args.out,
          parallel=args.parallel, gateway=_gateway_from_args(args), echo=print)
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    report = analyze(args.logs, args.out)
    print(f"wrote {report.summary_csv}")
    print(f"wrote {report.summary_md}")
    print(f"wrote {report.distribution_csv}")
    print(f"wrote {report.curve_csv}")
    for path in report.perturn_csvs:
        print(f"wrote {path}")
    return 0


def _cmd_validate_config(args: argparse.Namespace) -> int:
    config = GameConfig.read(args.config)
    print("configuration ok:")
    print(config.to_flat_text(), end="")
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    result = replay(GameLog.read(args.log))
    print(f"replay ok: {result.turns} turns, {result.events} events, "
          f"{result.survivors} survivors, ended by {result.reason}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="arena",
                                     description="Grid-world survival arena")
    commands = parser.add_subparsers(dest="command", required=True)

    run_parser = commands.add_parser("run", help="run one experiment")
    _add_run_args(run_parser)
    run_parser.set_defaults(handler=_cmd_run)

    sweep_parser = commands.add_parser("sweep", help="run one experiment per "
                                       "value of one config parameter")
    _add_run_args(sweep_parser)
    sweep_parser.add_argument("--param", help="config field to sweep "
                              "(default: the preset's sweep axis)")
    sweep_parser.add_argument("--values", help="comma-separated values "
                              "(default: the preset's sweep values)")
    sweep_parser.add_argument("--parallel", type=int, default=1,
                              help="independent runs in flight (default: %(default)s)")
    sweep_parser.set_defaults(handler=_cmd_sweep)

    analyze_parser = commands.add_parser("analyze", help="build reports from game logs")
    analyze_parser.add_argument("logs", nargs="+", type=Path, help="game.log files")
    analyze_parser.add_argument("--out", type=Path, required=True,
                                help="directory for report files")
    analyze_parser.set_defaults(handler=_cmd_analyze)

    validate_parser = commands.add_parser("validate-config",
                                          help="check a key=value config file")
    validate_parser.add_argument("config", type=Path)
    validate_parser.set_defaults(handler=_cmd_validate_config)

    replay_parser = commands.add_parser("replay", help="verify a game log by "
                                        "re-executing it")
    replay_parser.add_argument("log", type=Path)
    replay_parser.set_defaults(handler=_cmd_replay)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as exc:
        for problem in exc.problems:
            print(f"config error: {problem}", file=sys.stderr)
        return 2
    except (LogError, ReplayError, MetricsError) as exc:
        print(f"analysis error: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"runtime fault: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # engine or gateway faults
        print(f"runtime fault: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
