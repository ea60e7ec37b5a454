"""Memoized constructors and the operation memo leave every output unchanged."""

import copy
import os
import pickle
import subprocess
import sys

import numpy as np
import pytest

import siftfree_qkd
from siftfree_qkd import (
    Depolarizing,
    DimensionError,
    ExperimentSpec,
    LabelError,
    MeasurementBasis,
    Rng,
    SessionConfig,
    StateVector,
    UnitaryOp,
    apply_unitary,
    basis_state,
    bell_basis,
    bell_pair,
    bell_recycle_ops,
    computational_basis,
    controlled_shift,
    ghz_basis,
    ghz_state,
    measure,
    mub_family,
    pauli_matrix,
    relabel,
    run_chain,
    run_experiment,
    teleport,
    teleport_ghz,
    tensor,
)
from siftfree_qkd import states
from siftfree_qkd.cli import main
from siftfree_qkd.memo import MemoTable
from siftfree_qkd.states import (
    MEMO_ENTRY_COST,
    MEMO_LIMIT,
    memo_stats,
)

from oracles import FixedOutcome, fourier_basis
from test_golden import GOLDEN, _configs, _digest, _key
from test_states import random_state


def _assert_read_only(arr):
    with pytest.raises(ValueError):
        arr[(0,) * arr.ndim] = 0


@pytest.mark.parametrize(
    "build, arrays",
    [
        (lambda: pauli_matrix(3, 1, 2), lambda op: [op.matrix]),
        (lambda: computational_basis(5), lambda b: [b.vectors]),
        (lambda: bell_basis(3), lambda b: [b.vectors]),
        (lambda: bell_pair(3, ("A", "B")), lambda s: [s.amps]),
        (lambda: ghz_basis(), lambda b: [b.vectors]),
        (lambda: ghz_state(("C", "A", "B")), lambda s: [s.amps]),
        (lambda: basis_state(3, 1, "A"), lambda s: [s.amps]),
        (lambda: controlled_shift(3), lambda op: [op.matrix]),
        (
            lambda: mub_family(5, 3),
            lambda f: [b.vectors for b in f.bases]
            + [u.matrix for u in f.unitaries + f.inverses + f.transposes],
        ),
        (lambda: bell_recycle_ops(3), lambda t: [op.matrix for ops in t for op in ops]),
    ],
)
def test_constructor_repeat_returns_same_frozen_object(build, arrays):
    first = build()
    assert build() is first
    for arr in arrays(first):
        _assert_read_only(arr)


def test_constructor_stats_count_a_warm_repeat_as_a_hit():
    bell_pair(5, ("P", "Q"))
    before = bell_pair.stats()
    bell_pair(5, ("P", "Q"))
    after = bell_pair.stats()
    assert (after.hits - before.hits, after.misses - before.misses) == (1, 0)
    assert after.entries == before.entries


def test_constructor_with_unhashable_argument_still_works():
    pair = bell_pair(2, ["A", "B"])
    assert pair.labels == ("A", "B")
    np.testing.assert_array_equal(pair.amps, bell_pair(2, ("A", "B")).amps)


@pytest.mark.parametrize("d, m", [(2, 3), (3, 4), (5, 2)])
def test_mub_family_derived_operators(d, m):
    fam = mub_family(d, m)
    pair = bell_pair(d, ("A", "B"))
    for u, inv, tr in zip(fam.unitaries, fam.inverses, fam.transposes):
        np.testing.assert_array_equal(inv.matrix, u.matrix.conj().T)
        np.testing.assert_allclose(
            apply_unitary(pair, tr, ["A"]).amps,
            apply_unitary(pair, u, ["B"]).amps,
            atol=1e-12,
        )


def _cold(fn, *args):
    """fn(*args) computed under a fresh, empty operation memo.

    The shared table is swapped back afterwards, untouched, so a later call
    with the same inputs still misses it.
    """
    shared = states._memo
    states._memo = MemoTable(MEMO_LIMIT)
    try:
        return fn(*args)
    finally:
        states._memo = shared


def _check_every_outcome(state, targets, basis):
    """Measure until every outcome has come up; each must match the oracle.

    The first call fills the memo, every later one is answered from it.
    Returns the number of measurements made.
    """
    forced = [
        _cold(measure, state, targets, basis, FixedOutcome(j))[1:] for j in range(basis.dim)
    ]
    probs = [p for _, p in forced]
    before = memo_stats()
    seen = set()
    calls = 0
    while len(seen) < basis.dim:
        rng = Rng(calls)
        outcome, post, prob = measure(state, targets, basis, rng)
        twin = Rng(calls)
        assert twin.pick(probs) == outcome
        assert twin.random() == rng.random()  # measure took exactly one draw
        ref_post, ref_prob = forced[outcome]
        assert prob == ref_prob
        assert post.labels == ref_post.labels
        np.testing.assert_array_equal(post.amps, ref_post.amps)
        seen.add(outcome)
        calls += 1
    hits = memo_stats().hits - before.hits
    assert hits == (calls - 1) + (calls - basis.dim)
    return calls


@pytest.mark.parametrize("seed", [1, 2])
def test_memo_hit_matches_forced_measurement_for_every_outcome(seed):
    state = random_state(("A", "B", "C"), (3, 2, 3), seed)
    assert _check_every_outcome(state, ["A", "C"], bell_basis(3)) > 9
    assert _check_every_outcome(state, ["B"], fourier_basis(2)) > 2


def test_memo_keys_on_the_basis_object_not_its_id():
    state = random_state(("A",), (2,), 7)
    for trial in range(3):
        angle = 0.3 + trial
        vecs = np.array(
            [[np.cos(angle), np.sin(angle)], [-np.sin(angle), np.cos(angle)]]
        )
        basis = MeasurementBasis(2, vecs)
        outcome, post, prob = measure(state, ["A"], basis, Rng(trial))
        _, ref_post, ref_prob = _cold(measure, state, ["A"], basis, FixedOutcome(outcome))
        assert prob == ref_prob
        np.testing.assert_array_equal(post.amps, ref_post.amps)
        del basis


def test_memo_table_evicts_least_recently_used():
    table = MemoTable(10)
    table.put("a", 1, 4)
    table.put("b", 2, 4)
    assert table.get("a") == 1  # "b" is now the oldest
    table.put("c", 3, 4)
    assert table.get("b") is None
    assert table.get("a") == 1 and table.get("c") == 3
    table.put("huge", 4, 11)  # larger than the whole limit: not kept
    assert table.get("huge") is None
    stats = table.stats()
    assert (stats.hits, stats.misses, stats.evictions) == (3, 2, 1)
    assert (stats.entries, stats.held) == (2, 8)


def _flat(result):
    """Every state in an op's result, as (labels, dims, amplitude bytes)."""
    if isinstance(result, StateVector):
        return [(result.labels, result.dims, result.amps.tobytes())]
    if isinstance(result, tuple):
        return [item for part in result for item in _flat(part)]
    return [result]


def _outcome(out):
    return out.k, out.l, out.receiver_state, out.probability


# The Bell basis read as a 9x9 unitary: one operator object that mixes two
# registers.
_MIX = UnitaryOp(9, bell_basis(3).vectors)

_OPS = {
    "tensor": lambda: tensor([random_state(("A",), (3,), 1), random_state(("B", "C"), (2, 3), 2)]),
    "apply_unitary": lambda: apply_unitary(
        random_state(("A", "B", "C"), (3, 2, 3), 3), _MIX, ["C", "A"]
    ),
    "teleport": lambda: _outcome(
        teleport(random_state(("E", "psi"), (3, 2), 4), bell_pair(2), Rng(5), carrier="psi")
    ),
    "relabel": lambda: relabel(random_state(("A", "B"), (3, 2), 6), {"B": "E", "A": "F"}),
    "measure": lambda: measure(
        random_state(("A", "B", "C"), (3, 2, 3), 7), ["A", "C"], bell_basis(3), Rng(8)
    ),
}


@pytest.mark.parametrize("name", sorted(_OPS))
def test_op_memo_hit_equals_cold_computation(name, monkeypatch):
    op = _OPS[name]
    first = op()
    before = memo_stats()
    hit = op()
    after = memo_stats()
    assert after.misses == before.misses
    assert after.hits > before.hits
    assert _flat(hit) == _flat(first)
    monkeypatch.setattr(states, "_memo", MemoTable(MEMO_LIMIT))
    cold = op()
    assert states.memo_stats().hits == 0
    assert _flat(cold) == _flat(hit)


def test_signed_zeros_are_separate_entries():
    plus = StateVector(("A", "B"), (2, 2), np.array([1.0, 0.0, 0.0, 0.0]))
    minus = StateVector(("A", "B"), (2, 2), np.array([1.0, -0.0, 0.0, 0.0]))
    assert plus.amps.tobytes() != minus.amps.tobytes()
    op = pauli_matrix(2, 1, 1)
    from_plus = apply_unitary(plus, op, ["B"])
    before = memo_stats()
    assert apply_unitary(minus, op, ["B"]) is not from_plus
    assert memo_stats().misses == before.misses + 1


@pytest.mark.parametrize(
    "duplicate",
    [lambda s: pickle.loads(pickle.dumps(s)), copy.deepcopy, copy.copy],
    ids=["pickle", "deepcopy", "copy"],
)
def test_copied_state_keys_like_its_original(duplicate):
    state = random_state(("A", "B"), (3, 2), 13)
    twin = duplicate(state)
    assert twin is not state
    op = pauli_matrix(3, 1, 1)
    first = apply_unitary(state, op, ["A"])
    assert apply_unitary(twin, op, ["A"]) is first
    _assert_read_only(twin.amps)


def test_list_and_tuple_targets_share_one_entry():
    state = random_state(("A", "B", "C"), (2, 3, 2), 11)
    op = pauli_matrix(3, 2, 1)
    first = apply_unitary(state, op, ["B"])
    before = memo_stats()
    assert apply_unitary(state, op, ("B",)) is first
    joint = tensor([first, basis_state(2, 1, "D")])
    basis = computational_basis(2)
    post = measure(joint, ["D"], basis, FixedOutcome(1))[1]
    assert measure(tensor([first, basis_state(2, 1, "D")]), ("D",), basis, Rng(0))[1] is post
    after = memo_stats()
    assert after.hits == before.hits + 4  # the second apply, tensor and measure (2)
    assert after.misses == before.misses + 3  # the first tensor and measure (2)


@pytest.mark.parametrize(
    "swap",
    [
        lambda picker: teleport(basis_state(3, 1, "A_in"), bell_pair(3), picker),
        lambda picker: teleport_ghz(
            StateVector(("F1", "F2"), (2, 2), [0, 1, 0, 0]), ghz_state(), picker
        ),
    ],
    ids=["pair", "triple"],
)
def test_warm_swap_makes_two_lookups(swap):
    """The outcome distribution, then the recycled rest of the outcome drawn."""
    swap(FixedOutcome(4))
    before = memo_stats()
    swap(FixedOutcome(4))
    after = memo_stats()
    assert (after.hits - before.hits, after.misses - before.misses) == (2, 0)


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: relabel(random_state(("A", "B"), (3, 2), 14), {"Z": "Q"}), LabelError),
        (
            lambda: apply_unitary(random_state(("A", "B"), (3, 2), 12), pauli_matrix(2, 1, 0), ["A"]),
            DimensionError,
        ),
    ],
)
def test_failed_ops_raise_every_time_and_are_not_stored(call, error):
    with pytest.raises(error):
        call()
    before = memo_stats()
    for _ in range(2):
        with pytest.raises(error):
            call()
    after = memo_stats()
    assert after.misses == before.misses + 2
    assert (after.hits, after.entries, after.held) == (before.hits, before.entries, before.held)


def test_measure_memo_stays_within_limit_after_chain_d7(monkeypatch):
    """The one table every op shares stays within its limit, all ops counted.

    A fresh table, so the run must fill it by itself: a noisy d=7 chain
    rarely repeats a state, and 192 rounds over 4 hops outgrow the limit.
    """
    monkeypatch.setattr(states, "_memo", MemoTable(MEMO_LIMIT))
    before = memo_stats()
    cfg = SessionConfig(
        d=7, m=3, key_length=96, seed=4, abort_threshold=1.0, channel=Depolarizing(0.3)
    )
    run_chain(cfg, 4)
    after = memo_stats()
    assert after.evictions > before.evictions  # the run did fill the table
    assert after.held <= MEMO_LIMIT
    assert after.entries <= MEMO_LIMIT // MEMO_ENTRY_COST


@pytest.mark.parametrize(
    "spec",
    [
        ExperimentSpec(
            mode="two_party", d=3, m=2, key_length=256, trials=8, channel_kind="substituted"
        ),
        ExperimentSpec(
            mode="third_party_trusted", d=2, m=2, key_length=256, trials=4,
            channel_kind="purified", abort_threshold=1.0,
        ),
    ],
    ids=["two_party_d3_substituted", "third_party_d2_purified"],
)
def test_memo_holds_a_whole_experiment(spec, monkeypatch):
    """Rounds revisit a finite set of states; the table must hold all of it.

    LRU over a cyclic working set larger than the table hits almost
    nothing, so an experiment that evicts anything misses thousands of
    lookups on a repeat. Once the set fits, the repeat runs on hits alone.
    """
    monkeypatch.setattr(states, "_memo", MemoTable(MEMO_LIMIT))
    first = run_experiment(spec)
    filled = memo_stats()
    assert filled.evictions == 0
    assert run_experiment(spec) == first
    repeat = memo_stats()
    assert repeat.misses == filled.misses
    assert repeat.evictions == 0


@pytest.mark.parametrize(
    "config",
    [
        ("two_party", "substituted", 3, 1),
        ("pre_check", "loss", 3, 1),
        ("chain", "depolarizing", 3, 3),
        ("third_party_trusted", "purified", 2, 1),
    ],
    ids=lambda c: _key(*c),
)
def test_thrashing_memo_leaves_golden_digests_unchanged(config, monkeypatch):
    """A 256-unit table evicts on nearly every put; no output may notice."""
    monkeypatch.setattr(states, "_memo", MemoTable(256))
    assert _digest(*config) == GOLDEN[_key(*config)]
    stats = memo_stats()
    assert stats.evictions > stats.misses // 2
    assert stats.held <= 256


@pytest.mark.parametrize("config", list(_configs()), ids=lambda c: _key(*c))
def test_every_golden_config_holds_on_a_thrashing_memo(config, monkeypatch):
    """Stages hold the steps they looked up; evicting them changes nothing."""
    monkeypatch.setattr(states, "_memo", MemoTable(256))
    assert _digest(*config) == GOLDEN[_key(*config)]
    assert memo_stats().held <= 256


_WARM_UP = [
    ["--mode", "chain", "--d", "5", "--m", "3", "--n", "6", "--hops", "2",
     "--channel", "depolarizing", "--noise-p", "0.2", "--threshold", "1"],
    ["--mode", "third_party_trusted", "--n", "6", "--channel", "purified", "--threshold", "1"],
    ["--mode", "pre_check", "--d", "3", "--n", "6", "--channel", "loss", "--noise-p", "0.3"],
    ["--mode", "two_party", "--d", "2", "--n", "6", "--channel", "substituted"],
]
_SPEC = [
    "--mode", "two_party", "--d", "3", "--n", "12", "--trials", "2", "--seed", "9",
    "--channel", "substituted",
]


def _outputs(directory):
    return {name: (directory / name).read_bytes() for name in ("s.json", "t.csv", "tr.txt")}


def _file_flags(directory):
    return [
        "--out", str(directory / "s.json"), "--csv", str(directory / "t.csv"),
        "--transcript", str(directory / "tr.txt"),
    ]


def test_warm_caches_give_byte_identical_outputs(tmp_path, capsys):
    cold = tmp_path / "cold"
    warm = tmp_path / "warm"
    cold.mkdir()
    warm.mkdir()
    src = os.path.dirname(os.path.dirname(os.path.abspath(siftfree_qkd.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    subprocess.run(
        [sys.executable, "-m", "siftfree_qkd.cli", *_SPEC, *_file_flags(cold)],
        env=env, check=True, capture_output=True,
    )
    for argv in _WARM_UP:
        assert main(argv + ["--out", str(tmp_path / "warm_up.json")]) == 0
    assert main(_SPEC + _file_flags(warm)) == 0
    capsys.readouterr()
    assert _outputs(warm) == _outputs(cold)
