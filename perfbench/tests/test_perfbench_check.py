"""The output check accepts real outputs and fails tampered ones."""

import dataclasses

from check import count_failed
from run import Experiment, import_program
from workloads import WORKLOADS


def _small(name, **sizes):
    return dataclasses.replace(WORKLOADS[name], **sizes)


def _outputs(tmp_path, w, seed=7):
    outputs, _ = Experiment(str(tmp_path), w).run(import_program(), seed)
    assert outputs is not None
    return outputs


def test_every_workload_passes_at_small_size(tmp_path):
    for name in WORKLOADS:
        w = _small(name, n=4, trials=2)
        assert count_failed(w, 7, _outputs(tmp_path, w)) == 0, name


def test_wrong_recycled_count_fails_one_trial(tmp_path):
    w = _small("chain_d7_depolarizing", d=3, m=2, n=4, trials=3)
    outputs = _outputs(tmp_path, w)
    good = f"{w.hops * 2 * w.n}\n"
    csv = outputs["csv"].decode()
    lines = csv.split("\n")
    assert lines[2].endswith(good.strip())
    lines[2] = lines[2][: -len(good.strip())] + "1"
    tampered = dict(outputs, csv="\n".join(lines).encode())
    # The CSV no longer matches the summary, which fails the whole experiment.
    assert count_failed(w, 7, tampered) == w.trials


def test_aggregate_mismatch_and_digest_mismatch_fail_all_trials(tmp_path):
    w = _small("third_party_trusted_d2_purified", n=4, trials=2)
    outputs = _outputs(tmp_path, w)
    text = outputs["summary"].decode()
    tampered = dict(outputs, summary=text.replace('"total_recycled": 16', '"total_recycled": 15').encode())
    assert tampered["summary"] != outputs["summary"]
    assert count_failed(w, 7, tampered) == w.trials
    pinned = {"summary": "0" * 64, "csv": None, "transcript": None}
    assert count_failed(w, 7, outputs, pinned) == w.trials


def test_transcript_rounds_are_checked(tmp_path):
    w = _small("two_party_d3_substituted", n=4, trials=2)
    outputs = _outputs(tmp_path, w)
    assert count_failed(w, 7, outputs) == 0
    lines = outputs["transcript"].decode().splitlines()
    lines = [ln for ln in lines if " publish_b " not in ln]
    tampered = dict(outputs, transcript=("\n".join(lines) + "\n").encode())
    assert count_failed(w, 7, tampered) == w.trials
