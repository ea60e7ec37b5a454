"""The benchmark's workloads and the command lines they hand the program.

Each workload is one fixed `siftfree-qkd` configuration. The benchmark
seed only chooses the program's `--seed` for each experiment; everything
else about the input is fixed here, so the program sees nothing but
ordinary command-line flags. Why each workload exists is recorded in
BENCHMARK.json.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

# Program seed of the experiment whose outputs are pinned by digests.json.
DEFAULT_PROGRAM_SEED = 0


@dataclass(frozen=True)
class Workload:
    name: str
    mode: str
    d: int
    m: int
    n: int
    trials: int
    channel: str
    noise_p: float = 0.0
    hops: int = 1
    threshold: float | None = None
    transcript: bool = False

    @property
    def round_hops_per_trial(self) -> int:
        """Carrier rounds times hops in one session: 2N rounds, `hops` links each."""
        return 2 * self.n * self.hops

    def flags(self) -> list[str]:
        """The configuration as `siftfree-qkd` flags (no seed, no output paths)."""
        argv = [
            "--mode", self.mode,
            "--d", str(self.d),
            "--m", str(self.m),
            "--n", str(self.n),
            "--trials", str(self.trials),
            "--channel", self.channel,
        ]
        if self.noise_p:
            argv += ["--noise-p", repr(self.noise_p)]
        if self.hops != 1:
            argv += ["--hops", str(self.hops)]
        if self.threshold is not None:
            argv += ["--threshold", repr(self.threshold)]
        return argv


# Trial counts keep one experiment to a few seconds on a 2-core host, so a
# 15 s run holds several of them; two_party keeps 8 trials so that the
# harness's re-run of trial 0 for the transcript costs 1/8 of a session per
# trial. pre_check stays one long trial: its O(N^2) filter needs N = 8192.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="two_party_d3_substituted",
            mode="two_party", d=3, m=2, n=256, trials=8, channel="substituted",
            transcript=True,
        ),
        Workload(
            name="pre_check_d2_loss_long",
            mode="pre_check", d=2, m=2, n=8192, trials=1, channel="loss",
            noise_p=0.2, threshold=1.0,
        ),
        Workload(
            name="chain_d7_depolarizing",
            mode="chain", d=7, m=3, n=64, trials=4, channel="depolarizing",
            noise_p=0.05, hops=4, threshold=1.0,
        ),
        Workload(
            name="third_party_trusted_d2_purified",
            mode="third_party_trusted", d=2, m=2, n=256, trials=4, channel="purified",
            threshold=1.0,
        ),
    )
}


def program_seed(workload: str, bench_seed: int, experiment: int) -> int:
    """Program `--seed` of timed experiment `experiment` under `bench_seed`."""
    digest = hashlib.sha256(f"{workload}/{bench_seed}/{experiment}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1
