"""Command line front end for the experiment harness.

Values come from ExperimentSpec's defaults, then an optional flat key=value
config file, then command line flags, highest precedence last. When no --out
path is given the summary document goes to stdout. Exit status is 0 on success,
2 for configuration problems (a configuration too large for the available
memory among them), 3 for I/O problems.
"""

from __future__ import annotations

import argparse
import sys
from typing import NamedTuple, Optional, Sequence

from .harness import CHANNEL_KINDS, MODES, ExperimentSpec, run_experiment, summary_document
from .sessions import ConfigError

__all__ = ["main", "load_config_file"]


class _Option(NamedTuple):
    field: str
    help: str
    choices: Optional[tuple[str, ...]] = None


# Flag (and config key) -> ExperimentSpec field. Each option's default and
# type are the field's default and that default's type.
_OPTIONS = {
    "mode": _Option("mode", "protocol variant", MODES),
    "d": _Option("d", "carrier dimension (prime)"),
    "m": _Option("m", "number of bases in play"),
    "n": _Option("key_length", "key length in dits (2n rounds)"),
    "trials": _Option("trials", "independent sessions"),
    "seed": _Option("master_seed", "64-bit master seed"),
    "channel": _Option("channel_kind", "transmission channel model", CHANNEL_KINDS),
    "noise-p": _Option("noise_p", "depolarizing/loss probability"),
    "hops": _Option("hops", "links in chain mode"),
    "threshold": _Option("abort_threshold", "abort threshold"),
    "out": _Option("output_path", "summary file path (default: stdout)"),
    "csv": _Option("csv_path", "per-trial CSV path"),
    "transcript": _Option("transcript_path", "trial-0 transcript path"),
}


def _type(key: str) -> type:
    """int or float for a numeric field, str for the rest (paths default to None)."""
    default = getattr(ExperimentSpec, _OPTIONS[key].field)
    return str if default is None else type(default)


def load_config_file(path: str) -> dict:
    """Parse `key = value` lines; blank lines and # comments are skipped."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _OPTIONS:
            raise ConfigError(f"{path}:{lineno}: unknown field {key!r}")
        try:
            values[key] = _type(key)(value)
        except ValueError:
            kind = "integer" if _type(key) is int else "number"
            raise ConfigError(f"field {key}: cannot parse {value!r} as {kind}") from None
    return values


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="siftfree-qkd",
        description="Run seeded key-distribution experiments and emit statistics.",
    )
    parser.add_argument("--config", help="flat key=value config file")
    for key, option in _OPTIONS.items():
        parser.add_argument(f"--{key}", type=_type(key), help=option.help, choices=option.choices)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser().parse_args(argv)
    values = {}
    try:
        if args.config:
            values.update(load_config_file(args.config))
        for key in _OPTIONS:
            flag = getattr(args, key.replace("-", "_"))
            if flag is not None:
                values[key] = flag
        spec = ExperimentSpec(**{_OPTIONS[key].field: value for key, value in values.items()})
        summary = run_experiment(spec)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: this configuration needs more memory than is available", file=sys.stderr)
        return 2
    if spec.output_path:
        print(
            f"mode={spec.mode} trials={spec.trials} "
            f"abort_fraction={summary.abort_fraction:g} "
            f"mean_error={summary.mean_error_rate:g} -> {spec.output_path}"
        )
    else:
        sys.stdout.write(summary_document(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
