"""Experiment runner outputs, reproducibility, and the CLI wrapper."""

import json
import re
from pathlib import Path

import numpy as np
import pytest

from siftfree_qkd import (
    ConfigError,
    Depolarizing,
    ExperimentSpec,
    Ideal,
    Loss,
    PurifiedAttack,
    SubstitutedAttack,
    build_channel,
    emit_transcript,
    parse_transcript,
    run_experiment,
    summary_csv,
    summary_document,
)
from siftfree_qkd.cli import _parser, load_config_file, main


def test_spec_validation():
    with pytest.raises(ConfigError):
        ExperimentSpec(mode="carrier_pigeon")
    with pytest.raises(ConfigError):
        ExperimentSpec(mode="two_party", channel_kind="wiretap")
    with pytest.raises(ConfigError):
        ExperimentSpec(mode="two_party", trials=0)
    with pytest.raises(ConfigError):
        ExperimentSpec(mode="chain", hops=0)
    with pytest.raises(ConfigError):
        ExperimentSpec(mode="two_party", noise_p=1.2)
    with pytest.raises(ConfigError, match="loss"):
        ExperimentSpec(mode="two_party", channel_kind="loss", noise_p=1.0)


def test_build_channel_kinds():
    assert isinstance(build_channel("ideal", 0.0, 2), Ideal)
    assert isinstance(build_channel("depolarizing", 0.1, 2), Depolarizing)
    assert isinstance(build_channel("loss", 0.1, 2), Loss)
    assert isinstance(build_channel("substituted", 0.0, 2), SubstitutedAttack)
    purified = build_channel("purified", 0.0, 3)
    assert isinstance(purified, PurifiedAttack)
    assert purified.u_e.dim == 9


def test_noiseless_experiment_aggregates():
    spec = ExperimentSpec(mode="two_party", d=2, m=2, key_length=16, trials=10, master_seed=42)
    summary = run_experiment(spec)
    assert summary.abort_fraction == 0.0
    assert summary.mean_agreement == 1.0
    assert summary.mean_error_rate == 0.0
    assert summary.total_recycled == 10 * 32
    assert len(summary.per_trial) == 10
    seeds = [rec.seed for rec in summary.per_trial]
    assert len(set(seeds)) == 10


def test_substituted_experiment_all_abort():
    spec = ExperimentSpec(
        mode="two_party", d=2, m=2, key_length=64, trials=6,
        master_seed=7, channel_kind="substituted",
    )
    summary = run_experiment(spec)
    assert summary.abort_fraction == 1.0
    assert 0.434 < summary.mean_error_rate < 0.566
    assert summary.mean_eve_match == 1.0


def test_summary_document_parses_and_aggregates_recompute():
    spec = ExperimentSpec(
        mode="two_party", d=3, m=2, key_length=24, trials=5,
        master_seed=11, channel_kind="depolarizing", noise_p=0.3,
    )
    summary = run_experiment(spec)
    doc = json.loads(summary_document(summary))
    assert doc["experiment"]["mode"] == "two_party"
    assert doc["experiment"]["noise_p"] == 0.3
    rows = doc["per_trial"]
    assert len(rows) == 5
    errors = np.array([row["error_rate"] for row in rows])
    # 17 significant digits round-trip doubles exactly
    assert float(errors.mean()) == doc["aggregates"]["mean_error_rate"]
    assert float(errors.std(ddof=0)) == doc["aggregates"]["stddev_error_rate"]
    assert float(np.mean([row["aborted"] for row in rows])) == doc["aggregates"]["abort_fraction"]


def test_csv_has_fixed_header_and_row_count():
    spec = ExperimentSpec(mode="pre_check", d=2, m=2, key_length=8, trials=4, master_seed=3)
    text = summary_csv(run_experiment(spec))
    lines = text.strip().split("\n")
    assert lines[0] == "trial,seed,error_rate,aborted,agreement,eve_match,recycled"
    assert len(lines) == 5
    first = lines[1].split(",")
    assert first[0] == "0"
    assert first[3] in ("true", "false")


def test_written_files_are_byte_identical_across_reruns(tmp_path):
    kwargs = dict(
        mode="chain", d=2, m=2, key_length=8, trials=3, master_seed=99,
        hops=2, channel_kind="depolarizing", noise_p=0.2,
    )
    out1 = tmp_path / "a.json"
    csv1 = tmp_path / "a.csv"
    tr1 = tmp_path / "a.txt"
    run_experiment(ExperimentSpec(output_path=str(out1), csv_path=str(csv1),
                                  transcript_path=str(tr1), **kwargs))
    out2 = tmp_path / "b.json"
    csv2 = tmp_path / "b.csv"
    tr2 = tmp_path / "b.txt"
    run_experiment(ExperimentSpec(output_path=str(out2), csv_path=str(csv2),
                                  transcript_path=str(tr2), **kwargs))
    assert out1.read_bytes() == out2.read_bytes()
    assert csv1.read_bytes() == csv2.read_bytes()
    assert tr1.read_bytes() == tr2.read_bytes()


def test_emit_transcript_examples():
    ideal = ExperimentSpec(mode="two_party", d=2, m=2, key_length=8, trials=2, master_seed=1)
    msgs = parse_transcript(emit_transcript(ideal, 0))
    ks = [m.kind for m in msgs]
    assert ks.count("publish_b") == 1
    assert ks.count("publish_l") == 1

    chain = ExperimentSpec(mode="chain", d=2, m=2, key_length=4, trials=1, master_seed=2, hops=3)
    ks = [m.kind for m in parse_transcript(emit_transcript(chain, 0))]
    assert ks.count("publish_k") == 3
    assert ks.count("publish_l") == 3

    attacked = ExperimentSpec(
        mode="two_party", d=2, m=2, key_length=64, trials=1,
        master_seed=3, channel_kind="substituted",
    )
    ks = [m.kind for m in parse_transcript(emit_transcript(attacked, 0))]
    assert ks[-1] == "abort"


def test_emit_transcript_bad_index():
    spec = ExperimentSpec(mode="two_party", trials=2)
    with pytest.raises(ConfigError):
        emit_transcript(spec, 5)


def test_trial_seed_independent_of_other_trials():
    """Record for trial k is the same whether 1 or many trials ran."""
    base = dict(mode="two_party", d=2, m=2, key_length=8, master_seed=77)
    many = run_experiment(ExperimentSpec(trials=4, **base))
    assert many.per_trial[0].seed == run_experiment(ExperimentSpec(trials=1, **base)).per_trial[0].seed


# ---------------------------------------------------------------- CLI


def test_cli_stdout_summary(capsys):
    assert main(["--mode", "two_party", "--n", "8", "--trials", "2", "--seed", "5"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["experiment"]["trials"] == 2


def test_cli_writes_files(tmp_path, capsys):
    out = tmp_path / "sum.json"
    csv = tmp_path / "rows.csv"
    code = main([
        "--mode", "pre_check", "--d", "3", "--m", "2", "--n", "6",
        "--trials", "2", "--seed", "8",
        "--out", str(out), "--csv", str(csv),
    ])
    assert code == 0
    assert "pre_check" in capsys.readouterr().out
    assert json.loads(out.read_text())["experiment"]["d"] == 3
    assert csv.read_text().startswith("trial,seed,")


def test_cli_config_file_and_override(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "# comment line\n"
        "mode = two_party\n"
        "d = 3\n"
        "m = 3\n"
        "n = 8\n"
        "trials = 2\n"
        "seed = 13\n"
    )
    assert main(["--config", str(cfg), "--trials", "3"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["experiment"]["d"] == 3
    assert doc["experiment"]["trials"] == 3  # flag beats file


def test_config_file_rejects_unknown_key(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("mode = two_party\nwarp_factor = 9\n")
    with pytest.raises(ConfigError, match="warp_factor"):
        load_config_file(str(cfg))


def test_config_file_rejects_bad_number(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("trials = many\n")
    with pytest.raises(ConfigError, match="trials"):
        load_config_file(str(cfg))


def test_cli_exit_codes(tmp_path, capsys):
    assert main(["--d", "6"]) == 2
    assert main(["--config", str(tmp_path / "missing.cfg")]) == 3
    assert main(["--out", str(tmp_path / "no" / "such" / "dir" / "x.json")]) == 3
    capsys.readouterr()


def test_cli_rejects_certain_loss_before_running(monkeypatch, capsys):
    # Every carrier would be lost and retransmitted forever.
    def no_session(spec):
        raise AssertionError("a session was started")

    monkeypatch.setattr("siftfree_qkd.cli.run_experiment", no_session)
    assert main(["--mode", "two_party", "--channel", "loss", "--noise-p", "1.0"]) == 2
    assert "noise-p" in capsys.readouterr().err


@pytest.mark.parametrize("channel", ["ideal", "purified"])
def test_cli_rejects_oversized_d_before_building_anything(monkeypatch, capsys, channel):
    def no_build(*args):
        raise AssertionError("a basis or channel was built")

    monkeypatch.setattr("siftfree_qkd.sessions.mub_family", no_build)
    monkeypatch.setattr("siftfree_qkd.harness.build_channel", no_build)
    assert main(["--mode", "two_party", "--d", "251", "--n", "1", "--channel", channel]) == 2
    assert "too large" in capsys.readouterr().err


def test_cli_rejects_attacked_link_too_large_for_first_teleport(monkeypatch, capsys):
    # 11^3 fits the cap, but a substituted pair adds two 11-level registers.
    def no_build(*args):
        raise AssertionError("a basis was built")

    monkeypatch.setattr("siftfree_qkd.sessions.mub_family", no_build)
    assert main(["--mode", "two_party", "--d", "11", "--n", "1", "--channel", "substituted"]) == 2
    assert "too large" in capsys.readouterr().err


def test_cli_rejects_oversized_purified_link_before_building_the_coupling(monkeypatch, capsys):
    # 37^3 fits the cap, but the coupling's 37-level ancilla does not; the
    # coupling itself would be a 1369 x 1369 matrix.
    def no_build(*args):
        raise AssertionError("the coupling was built")

    monkeypatch.setattr("siftfree_qkd.harness.controlled_shift", no_build)
    assert main(["--mode", "two_party", "--d", "37", "--n", "1", "--channel", "purified"]) == 2
    assert "purified registers" in capsys.readouterr().err


def test_readme_flag_table_matches_parser():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    documented = set(re.findall(r"^\| `(--[a-z-]+)` \|", readme.read_text(), re.MULTILINE))
    parsed = {
        flag
        for action in _parser()._actions
        for flag in action.option_strings
        if flag not in ("-h", "--help")
    }
    assert documented == parsed


def test_transcript_file_is_trial_zero_of_the_same_run(tmp_path, monkeypatch):
    import siftfree_qkd.harness as harness

    sessions = []
    run_trial = harness._run_trial

    def counted(spec, trial):
        sessions.append(trial)
        return run_trial(spec, trial)

    monkeypatch.setattr(harness, "_run_trial", counted)
    path = tmp_path / "trial0.txt"
    spec = ExperimentSpec(
        mode="two_party", d=3, key_length=6, trials=3, master_seed=4,
        channel_kind="substituted", transcript_path=str(path),
    )
    run_experiment(spec)
    assert sessions == [0, 1, 2]
    assert path.read_text() == emit_transcript(spec, 0)


def test_cli_transcript_flag(tmp_path):
    path = tmp_path / "trial0.txt"
    assert main([
        "--mode", "third_party_trusted", "--n", "4", "--seed", "21",
        "--out", str(tmp_path / "s.json"), "--transcript", str(path),
    ]) == 0
    msgs = parse_transcript(path.read_text())
    assert sum(1 for m in msgs if m.kind == "charlie_mask_reveal") == 2
