"""Output checks: pinned digests at the default seed, invariants at any seed.

An experiment's outputs are the summary document, the per-trial CSV and,
where the workload asks for one, the trial-0 transcript. Every check here
reads only those bytes; nothing imports the program, so a change to the
program cannot change what counts as correct.
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np

from workloads import Workload

DIGESTS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "digests.json")

CSV_HEADER = "trial,seed,error_rate,aborted,agreement,eve_match,recycled"
ROW_FIELDS = ("trial", "seed", "error_rate", "aborted", "agreement", "eve_match", "recycled")


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def output_digests(outputs: dict[str, bytes | None]) -> dict[str, str | None]:
    return {name: None if data is None else sha256(data) for name, data in outputs.items()}


def load_digests() -> dict:
    with open(DIGESTS_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh)


def expected_recycled(w: Workload, aborted: bool) -> int:
    """Recycled pairs (or triples) per trial, fixed by the protocol."""
    if w.mode == "pre_check":
        return 0 if aborted else w.n
    if w.mode == "chain":
        return w.hops * 2 * w.n
    return 2 * w.n


def _parse_csv(text: str) -> list[dict]:
    lines = text.split("\n")
    if lines[0] != CSV_HEADER or lines[-1] != "":
        raise ValueError("CSV header or final newline is wrong")
    rows = []
    for line in lines[1:-1]:
        cells = line.split(",")
        if len(cells) != len(ROW_FIELDS) or cells[3] not in ("true", "false"):
            raise ValueError(f"malformed CSV row {line!r}")
        rows.append(
            {
                "trial": int(cells[0]),
                "seed": int(cells[1]),
                "error_rate": float(cells[2]),
                "aborted": cells[3] == "true",
                "agreement": float(cells[4]),
                "eve_match": float(cells[5]),
                "recycled": int(cells[6]),
            }
        )
    return rows


def _row_ok(w: Workload, index: int, row: dict) -> bool:
    if row["trial"] != index or not 0 <= row["seed"] < 2**63:
        return False
    if row["recycled"] != expected_recycled(w, row["aborted"]):
        return False
    if not (0.0 <= row["error_rate"] <= 1.0 and 0.0 <= row["agreement"] <= 1.0):
        return False
    if not 0.0 <= row["eve_match"] <= 1.0:
        return False
    if row["aborted"] and row["agreement"] != 0.0:
        return False
    if w.channel == "loss" and w.noise_p < 1.0:
        # Lost carriers are re-sent fresh, so a loss-only link is noiseless.
        return row["error_rate"] == 0.0 and row["agreement"] == 1.0
    return True


def _aggregates_ok(summary: dict, rows: list[dict]) -> bool:
    """The aggregates recompute exactly from the per-trial rows."""
    agg = summary["aggregates"]
    errors = np.array([r["error_rate"] for r in rows], dtype=np.float64)
    expected = {
        "mean_error_rate": float(errors.mean()),
        "stddev_error_rate": float(errors.std(ddof=0)),
        "abort_fraction": float(np.mean([r["aborted"] for r in rows])),
        "mean_agreement": float(np.mean([r["agreement"] for r in rows])),
        "mean_eve_match": float(np.mean([r["eve_match"] for r in rows])),
        "total_recycled": int(sum(r["recycled"] for r in rows)),
    }
    return agg == expected


def _header_ok(w: Workload, summary: dict, master_seed: int) -> bool:
    exp = summary["experiment"]
    return exp == {
        "mode": w.mode,
        "d": w.d,
        "m": w.m,
        "key_length": w.n,
        "trials": w.trials,
        "master_seed": master_seed,
        "channel": w.channel,
        "noise_p": float(w.noise_p),
        "hops": w.hops,
        "abort_threshold": 0.05 if w.threshold is None else float(w.threshold),
    }


def _transcript_ok(w: Workload, text: str, row0: dict) -> bool:
    """Trial 0 ran 2N rounds: every per-round string is 2N long, N checked."""
    total = 2 * w.n
    by_kind: dict[str, list[tuple[int, ...]]] = {}
    for line in text.splitlines():
        parts = line.split(" ")
        if len(parts) != 4:
            return False
        payload = () if parts[3] == "-" else tuple(int(x) for x in parts[3].split(","))
        by_kind.setdefault(parts[2], []).append(payload)
    if w.mode != "two_party":
        raise ValueError(f"no transcript rule for mode {w.mode}")
    checks = by_kind.get("check_positions", [()])[0]
    decision = "abort" if row0["aborted"] else "proceed"
    return (
        [len(p) for p in by_kind.get("publish_l", [])] == [total]
        and [len(p) for p in by_kind.get("publish_b", [])] == [total]
        and len(checks) == w.n
        and list(checks) == sorted(set(checks))
        and all(0 <= r < total for r in checks)
        and [len(p) for p in by_kind.get("check_values", [])] == [w.n, w.n]
        and decision in by_kind
        and "pair_lost" not in by_kind
    )


def count_failed(
    w: Workload,
    master_seed: int,
    outputs: dict[str, bytes | None] | None,
    pinned: dict | None = None,
) -> int:
    """Number of the experiment's trials whose outputs fail a check.

    `outputs` is None when the program failed, which fails every trial. A
    check on the experiment as a whole (parse, header, aggregates,
    transcript, pinned digests) fails every trial; a per-row invariant fails
    only its own trial. `pinned` holds the recorded digests when the
    experiment ran at the default seed.
    """
    if outputs is None:
        return w.trials
    try:
        summary_text = outputs["summary"].decode("utf-8")
        summary = json.loads(summary_text)
        rows = summary["per_trial"]
        csv_rows = _parse_csv(outputs["csv"].decode("utf-8"))
    except (AttributeError, KeyError, TypeError, ValueError):
        return w.trials
    whole_ok = (
        len(rows) == w.trials
        and csv_rows == rows
        and _header_ok(w, summary, master_seed)
        and _aggregates_ok(summary, rows)
    )
    if whole_ok and w.transcript:
        text = outputs.get("transcript")
        whole_ok = text is not None and _transcript_ok(w, text.decode("utf-8"), rows[0])
    if whole_ok and pinned is not None:
        whole_ok = output_digests(outputs) == pinned
    if not whole_ok:
        return w.trials
    return sum(1 for i, row in enumerate(rows) if not _row_ok(w, i, row))
