"""Batch experiment runner with byte-reproducible outputs.

An experiment is `trials` independent sessions of one protocol mode, each
seeded by a child of the master seed. The summary (structured text with
self-describing field names), the optional per-trial CSV, and the optional
single-trial transcript are all pure functions of the experiment spec, so
rerunning a spec reproduces every output byte for byte. Floats are written
with 17 significant digits, which round-trips IEEE doubles exactly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields, replace
from typing import Optional

import numpy as np

from .channels import (
    ChannelModel,
    Depolarizing,
    Ideal,
    Loss,
    PurifiedAttack,
    SubstitutedAttack,
)
from .rng import Rng
from .sessions import (
    ConfigError,
    KeyResult,
    SessionConfig,
    run_chain,
    run_pre_check,
    run_third_party,
    run_two_party,
    serialize_transcript,
)

__all__ = [
    "MODES",
    "CHANNEL_KINDS",
    "ExperimentSpec",
    "TrialRecord",
    "ExperimentSummary",
    "build_channel",
    "run_experiment",
    "emit_transcript",
    "summary_document",
    "summary_csv",
]

MODES = ("two_party", "pre_check", "third_party_untrusted", "third_party_trusted", "chain")
CHANNEL_KINDS = ("ideal", "depolarizing", "loss", "substituted", "purified")

# Seed-derivation branch for trials; distinct from every in-session purpose
# index so a trial's own child streams can never collide with it.
_R_TRIALS = 1000


@dataclass(frozen=True)
class ExperimentSpec:
    """Everything that determines an experiment's outputs.

    channel_kind "purified" uses the controlled-shift coupling with a
    d-dimensional ancilla, the benchmark adversary. noise_p parameterizes
    the depolarizing and loss kinds and is ignored otherwise. hops only
    matters for mode "chain". Output paths are optional; `run_experiment`
    writes whichever are set.
    """

    mode: str = "two_party"
    d: int = 2
    m: int = 2
    key_length: int = 16
    trials: int = 1
    master_seed: int = 0
    channel_kind: str = "ideal"
    noise_p: float = 0.0
    hops: int = 1
    abort_threshold: float = 0.05
    output_path: Optional[str] = None
    csv_path: Optional[str] = None
    transcript_path: Optional[str] = None

    def __post_init__(self):
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {', '.join(MODES)}, got {self.mode!r}")
        if self.channel_kind not in CHANNEL_KINDS:
            raise ConfigError(
                f"channel must be one of {', '.join(CHANNEL_KINDS)}, got {self.channel_kind!r}"
            )
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")
        if self.hops < 1:
            raise ConfigError("hops must be >= 1")
        if not 0.0 <= self.noise_p <= 1.0:
            raise ConfigError("noise-p must lie in [0, 1]")
        if self.channel_kind == "loss" and self.noise_p == 1.0:
            raise ConfigError(
                "noise-p must be below 1 for the loss channel: every carrier "
                "would be lost and retransmitted forever"
            )


@dataclass(frozen=True)
class TrialRecord:
    """One CSV row; the summary aggregates are means over these."""

    trial: int
    seed: int
    error_rate: float
    aborted: bool
    agreement: float
    eve_match: float
    recycled: int


# The per-trial fields in output order: the CSV header and columns, and the
# keys of each summary row.
_TRIAL_FIELDS = tuple(f.name for f in fields(TrialRecord))


@dataclass(frozen=True)
class ExperimentSummary:
    spec: ExperimentSpec
    per_trial: tuple[TrialRecord, ...]
    mean_error_rate: float
    stddev_error_rate: float
    abort_fraction: float
    mean_agreement: float
    mean_eve_match: float
    total_recycled: int


# The aggregate fields in output order: the rows of the summary's
# "aggregates" object.
_AGGREGATE_FIELDS = tuple(
    f.name for f in fields(ExperimentSummary) if f.name not in ("spec", "per_trial")
)


def build_channel(kind: str, noise_p: float) -> ChannelModel:
    if kind == "ideal":
        return Ideal()
    if kind == "depolarizing":
        return Depolarizing(noise_p)
    if kind == "loss":
        return Loss(noise_p)
    if kind == "substituted":
        return SubstitutedAttack()
    if kind == "purified":
        return PurifiedAttack()
    raise ConfigError(f"unknown channel kind {kind!r}")


def _trial_seed(master_seed: int, trial: int) -> int:
    return int(Rng(master_seed).child(_R_TRIALS, trial).integers(0, 2**63))


def _session_config(spec: ExperimentSpec, trial: int) -> SessionConfig:
    config = SessionConfig(
        d=spec.d,
        m=spec.m,
        key_length=spec.key_length,
        abort_threshold=spec.abort_threshold,
        seed=_trial_seed(spec.master_seed, trial),
    )
    return replace(config, channel=build_channel(spec.channel_kind, spec.noise_p))


def _run_trial(spec: ExperimentSpec, trial: int) -> KeyResult:
    config = _session_config(spec, trial)
    if spec.mode == "two_party":
        return run_two_party(config)
    if spec.mode == "pre_check":
        return run_pre_check(config)
    if spec.mode == "third_party_untrusted":
        return run_third_party(config, trusted=False)
    if spec.mode == "third_party_trusted":
        return run_third_party(config, trusted=True)
    return run_chain(config, spec.hops)


def _trial_record(spec: ExperimentSpec, trial: int, result: KeyResult) -> TrialRecord:
    if result.aborted or not result.alice_key:
        agreement = 0.0
    else:
        matches = sum(1 for a, b in zip(result.alice_key, result.bob_key) if a == b)
        agreement = matches / len(result.alice_key)
    if result.eve_digits is None:
        eve_match = 1.0 / spec.d
    else:
        valid = [
            r
            for r in range(len(result.alice_digits))
            if result.alice_digits[r] >= 0 and result.eve_digits[r] >= 0
        ]
        if valid:
            eve_match = sum(
                1 for r in valid if result.alice_digits[r] == result.eve_digits[r]
            ) / len(valid)
        else:
            eve_match = 0.0
    return TrialRecord(
        trial=trial,
        seed=_trial_seed(spec.master_seed, trial),
        error_rate=float(result.observed_error_rate),
        aborted=bool(result.aborted),
        agreement=float(agreement),
        eve_match=float(eve_match),
        recycled=int(result.recycled_pairs),
    )


def run_experiment(spec: ExperimentSpec) -> ExperimentSummary:
    """Run every trial, aggregate, and write the configured output files."""
    records = []
    transcript = ""
    for trial in range(spec.trials):
        result = _run_trial(spec, trial)
        records.append(_trial_record(spec, trial, result))
        if trial == 0 and spec.transcript_path:
            transcript = serialize_transcript(result.transcript)
    errors = np.array([rec.error_rate for rec in records], dtype=np.float64)
    summary = ExperimentSummary(
        spec=spec,
        per_trial=tuple(records),
        mean_error_rate=float(errors.mean()),
        stddev_error_rate=float(errors.std(ddof=0)),
        abort_fraction=float(np.mean([rec.aborted for rec in records])),
        mean_agreement=float(np.mean([rec.agreement for rec in records])),
        mean_eve_match=float(np.mean([rec.eve_match for rec in records])),
        total_recycled=int(sum(rec.recycled for rec in records)),
    )
    if spec.output_path:
        _write_text(spec.output_path, summary_document(summary))
    if spec.csv_path:
        _write_text(spec.csv_path, summary_csv(summary))
    if spec.transcript_path:
        _write_text(spec.transcript_path, transcript)
    return summary


def emit_transcript(spec: ExperimentSpec, trial_index: int) -> str:
    """Serialized classical transcript of one trial, for golden-file tests."""
    if not 0 <= trial_index < spec.trials:
        raise ConfigError(f"trial_index {trial_index} outside 0..{spec.trials - 1}")
    return serialize_transcript(_run_trial(spec, trial_index).transcript)


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, float):
        return format(value, ".17g")
    if isinstance(value, str):
        return json.dumps(value)
    raise TypeError(f"cannot serialize {type(value).__name__}")


def _object_block(name: str, rows: list[tuple[str, object]]) -> list[str]:
    """Lines of one named JSON object, one `"key": value` row per line."""
    body = [f'    "{k}": {_fmt(v)}' for k, v in rows]
    return [f'  "{name}": {{'] + [line + "," for line in body[:-1]] + body[-1:] + ["  },"]


def summary_document(summary: ExperimentSummary) -> str:
    """Structured summary text (JSON) with 17-significant-digit floats."""
    spec = summary.spec
    head = [
        ("mode", spec.mode),
        ("d", spec.d),
        ("m", spec.m),
        ("key_length", spec.key_length),
        ("trials", spec.trials),
        ("master_seed", spec.master_seed),
        ("channel", spec.channel_kind),
        ("noise_p", float(spec.noise_p)),
        ("hops", spec.hops),
        ("abort_threshold", float(spec.abort_threshold)),
    ]
    aggregates = [(name, getattr(summary, name)) for name in _AGGREGATE_FIELDS]
    lines = ["{"] + _object_block("experiment", head) + _object_block("aggregates", aggregates)
    lines.append('  "per_trial": [')
    for i, rec in enumerate(summary.per_trial):
        row = ", ".join(f'"{name}": {_fmt(getattr(rec, name))}' for name in _TRIAL_FIELDS)
        comma = "," if i < len(summary.per_trial) - 1 else ""
        lines.append("    {" + row + "}" + comma)
    lines += ["  ]", "}"]
    return "".join(line + "\n" for line in lines)


def summary_csv(summary: ExperimentSummary) -> str:
    """Per-trial rows under the fixed header, floats at 17 digits."""
    lines = [",".join(_TRIAL_FIELDS)]
    for rec in summary.per_trial:
        lines.append(",".join(_fmt(getattr(rec, name)) for name in _TRIAL_FIELDS))
    return "".join(line + "\n" for line in lines)
