"""Round-hop throughput benchmark for siftfree-qkd, with a traced per-module run.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The program is imported from the checkout's `src/` and driven through its
public entry point, `siftfree_qkd.cli.main`, in this process: a closed loop,
one experiment at a time, trials in order, no extra threads. Summary, CSV
and (where the workload asks) transcript go to a scratch directory inside
the checkout and are checked (check.py) after every experiment.

--trace 0 prints the end-to-end metrics. Their seconds are reference
seconds: wall seconds rescaled by the host's speed, which a fixed kernel
samples during the timed window (reference.py); this cancels the shared
host's slow phases, which outlast a run.
    round_hops_per_s  carrier rounds x hops of the trials that pass the
                      output check, per reference second of the timed
                      window (whole experiments, until --seconds of wall
                      time have passed)
    setup_s           median, in reference seconds, of fresh interpreters
                      that import siftfree_qkd and finish the smallest
                      session of the workload's configuration (N = 1, one
                      trial); that session's summary is checked against
                      its digest
    peak_rss_mb       peak resident memory of this process
--trace 1 runs the workload's default-seed experiment untraced, untraced
again, and then traced (spans.py), and prints the per-module metrics.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

from check import count_failed, load_digests, output_digests  # noqa: E402
from reference import HostSpeed  # noqa: E402
from spans import MODULES, SESSION_RUNS, Tracer, repeat_ratio  # noqa: E402
from workloads import DEFAULT_PROGRAM_SEED, WORKLOADS, Workload, program_seed  # noqa: E402

SETUP_REPEATS = 9
SETUP_TIMEOUT_S = 60

# A fresh interpreter imports the package, runs the set-up probe and prints
# the monotonic clock when the probe is done. The clock is shared by all
# processes, so set-up time excludes interpreter teardown, and does not wait
# on the parent's polling for the child's exit.
SETUP_CODE = """
import sys, time
sys.path.insert(0, sys.argv[1])
import siftfree_qkd
from siftfree_qkd import cli
status = cli.main(sys.argv[2:])
print(time.monotonic())
sys.exit(status)
"""

# Call counters of the traced run: (metric prefix, span name, also report
# the median µs per call).
CALL_METRICS = [
    ("rng.child", "rng.Rng.child", True),
    ("bases.bell_basis", "bases.bell_basis", True),
    ("bases.bell_pair", "bases.bell_pair", False),
    ("bases.mub_family", "bases.mub_family", False),
    ("bases.pauli_matrix", "bases.pauli_matrix", False),
    ("bases.ghz_basis", "bases.ghz_basis", False),
    ("states.StateVector", "states.StateVector", True),
    ("states.UnitaryOp", "states.UnitaryOp", False),
    ("states.MeasurementBasis", "states.MeasurementBasis", False),
    ("states.tensor", "states.tensor", True),
    ("states.apply_unitary", "states.apply_unitary", True),
    ("states.measure", "states.measure", True),
    ("states.factor", "states.factor", True),
    ("states.fidelity", "states.fidelity", False),
    ("teleport.recycle", "teleport.recycle", True),
    ("channels.apply_channel", "channels.apply_channel", True),
]


def import_program():
    """Import siftfree_qkd from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, SRC)
    import siftfree_qkd
    from siftfree_qkd import cli

    if os.path.dirname(os.path.abspath(siftfree_qkd.__file__)) != os.path.join(SRC, "siftfree_qkd"):
        raise ImportError(f"siftfree_qkd imported from {siftfree_qkd.__file__}, not {SRC}")
    return cli


class Experiment:
    """One `cli.main` call and the files it wrote."""

    def __init__(self, workdir: str, w: Workload):
        self.w = w
        self.paths = {
            "summary": os.path.join(workdir, "summary.json"),
            "csv": os.path.join(workdir, "trials.csv"),
            "transcript": os.path.join(workdir, "transcript.txt") if w.transcript else None,
        }

    def argv(self, seed: int) -> list[str]:
        argv = self.w.flags() + ["--seed", str(seed)]
        argv += ["--out", self.paths["summary"], "--csv", self.paths["csv"]]
        if self.paths["transcript"]:
            argv += ["--transcript", self.paths["transcript"]]
        return argv

    def run(self, cli, seed: int) -> tuple[dict | None, float]:
        """Outputs (None when the program failed) and wall seconds."""
        for path in self.paths.values():
            if path and os.path.exists(path):
                os.remove(path)
        argv = self.argv(seed)
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                status = cli.main(argv)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            status = None
        wall = time.perf_counter() - t0
        if status != 0:
            print(f"experiment {argv} failed with status {status}", file=sys.stderr)
            return None, wall
        outputs = {}
        for name, path in self.paths.items():
            outputs[name] = None
            if path:
                with open(path, "rb") as fh:
                    outputs[name] = fh.read()
        return outputs, wall


def measure_setup(cli_flags: list[str], out_path: str) -> tuple[float, list[float]]:
    """Median set-up time in reference seconds, and the wall times it came from."""
    argv = [sys.executable, "-c", SETUP_CODE, SRC] + cli_flags + ["--out", out_path]
    walls = []
    with HostSpeed() as speed:
        for _ in range(SETUP_REPEATS):
            t0 = time.monotonic()
            proc = subprocess.run(
                argv, cwd=ROOT, check=True, timeout=SETUP_TIMEOUT_S,
                stdout=subprocess.PIPE, stdin=subprocess.DEVNULL, text=True,
            )
            walls.append(float(proc.stdout.split()[-1]) - t0)
    return speed.rescale(statistics.median(walls)), walls


def timed_run(cli, w: Workload, bench_seed: int, seconds: float, workdir: str) -> dict:
    # The set-up probe is the smallest session of the workload's configuration
    # at the default seed; its summary is also checked byte for byte.
    probe = dataclasses.replace(w, n=1, trials=1, transcript=False)
    probe_out = os.path.join(workdir, "setup.json")
    setup_s, setup_walls = measure_setup(
        probe.flags() + ["--seed", str(DEFAULT_PROGRAM_SEED)], probe_out
    )
    with open(probe_out, "rb") as fh:
        summary = fh.read()
    pinned = {"summary": load_digests()[w.name]["setup_summary"]}
    attempted = 1
    failed = 0 if output_digests({"summary": summary}) == pinned else 1

    # Round-hops over the whole timed window, not a median of experiments:
    # the shared host slows down in phases of several seconds, and a window
    # total is steadier across runs than a median of a few long experiments.
    # Phases longer than the window are cancelled by rescaling each
    # experiment with the host speed sampled during it (reference.py); the
    # samples' own time is taken out of the experiment's wall time.
    exp = Experiment(workdir, w)
    round_hops = 0
    walls = []
    reference_s = 0.0
    with HostSpeed() as speed:
        while sum(walls) < seconds or not walls:
            seed = program_seed(w.name, bench_seed, len(walls))
            busy_before, first = speed.busy_s, len(speed.samples)
            outputs, wall = exp.run(cli, seed)
            walls.append(wall - (speed.busy_s - busy_before))
            reference_s += speed.rescale(walls[-1], first)
            bad = count_failed(w, seed, outputs)
            attempted += w.trials
            failed += bad
            round_hops += (w.trials - bad) * w.round_hops_per_trial
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # The raw figures, for a reader who wants to check the rescaling.
    raw = {"walls": walls, "round_hops": round_hops, "setup_walls": setup_walls,
           "samples": len(speed.samples), "sample_median": statistics.median(speed.samples),
           "whole_run_reference_s": speed.rescale(sum(walls))}
    print("raw samples:", json.dumps(raw), file=sys.stderr)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "round_hops_per_s": {"value": round_hops / reference_s, "unit": "1/s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_kb / 1024.0, "unit": "MB"},
        },
    }


def traced_run(cli, w: Workload, workdir: str) -> dict:
    exp = Experiment(workdir, w)
    pinned = dict(load_digests()[w.name])
    del pinned["setup_summary"]
    seed = DEFAULT_PROGRAM_SEED
    reference, _ = exp.run(cli, seed)
    failed = count_failed(w, seed, reference, pinned)
    again, untraced_wall = exp.run(cli, seed)
    failed += count_failed(w, seed, again, pinned)

    tracer = Tracer()
    tracer.install()
    try:
        t0 = time.perf_counter_ns()
        traced, _ = exp.run(cli, seed)
        wall_ns = time.perf_counter_ns() - t0
    finally:
        tracer.uninstall()
    failed += count_failed(w, seed, traced, pinned)

    problems = []
    if traced is None or reference is None or output_digests(traced) != output_digests(reference):
        problems.append("traced outputs differ from untraced outputs")
    leftovers = tracer.leftover_wrappers()
    if leftovers:
        problems.append(f"wrappers left installed: {leftovers}")
    self_ns = tracer.module_self_ns()
    unattributed_ns = wall_ns - tracer.top_level_ns()
    if unattributed_ns < 0 or sum(self_ns.values()) + unattributed_ns != wall_ns:
        problems.append("module self times and unattributed time do not add up to the wall time")
    for problem in problems:
        print(f"trace check failed: {problem}", file=sys.stderr)

    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    for metric, span, timed in CALL_METRICS:
        put(f"{metric}.calls", tracer.calls(span), "count")
        if timed:
            put(f"{metric}.us_per_call", tracer.median_us(span), "us")
    attempts = tracer.calls("channels.apply_channel")
    runs = sum(tracer.calls(name) for name in SESSION_RUNS)
    put("states.peak_amplitudes", tracer.peak_amplitudes, "count")
    put("states.measure_repeat_ratio", repeat_ratio(tracer.measure_keys), "ratio")
    put("channels.arrival_ratio", (attempts - tracer.lost_carriers) / max(attempts, 1), "ratio")
    put("sessions.runs", runs, "count")
    put("sessions.transcript_messages", tracer.transcript_messages, "count")
    put("harness.session_runs_per_trial", runs / w.trials, "ratio")
    put("harness.output_bytes", sum(len(v) for v in (traced or {}).values() if v), "bytes")
    for module in MODULES + ("trace",):
        put(f"{module}.self_s", self_ns.get(module, 0) / 1e9, "s")
    put("trace.unattributed_s", unattributed_ns / 1e9, "s")
    put("trace.wall_s", wall_ns / 1e9, "s")
    put("trace.spans", len(tracer.names), "count")
    put("trace.overhead_ratio", wall_ns / 1e9 / untraced_wall, "ratio")
    return {
        "correct": failed == 0 and not problems,
        "attempted": 3 * w.trials,
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        cli = import_program()
    except ImportError as exc:
        print(f"error: cannot import the program from {SRC}: {exc}", file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
        if args.trace:
            result = traced_run(cli, w, workdir)
        else:
            result = timed_run(cli, w, args.seed, args.seconds, workdir)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
