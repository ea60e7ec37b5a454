"""Calibrate observed check error against the depolarizing channel strength.

A depolarizing channel of strength p replaces the transmitted qudit half
with a uniformly random Pauli kick with probability p. Only a fraction of
those kicks flip the digit Bob reads, so the check error sits below p.
In prime dimension d each basis of the family is left alone by exactly d
of the d^2 Paulis (identity included), so the flip rate is (d-1)/d * p:
p/2 at d=2, 2p/3 at d=3. This script sweeps d and p, prints observed vs
predicted rates, and flags any cell off by more than 3 binomial sigma.

Usage:
    python3 scripts/noise_calibration.py [--key-length 512] [--trials 10]
"""

import argparse
import math

from siftfree_qkd import ExperimentSpec, run_experiment


def flip_fraction(d: int) -> float:
    """Basis-averaged digit-flip fraction per Pauli kick in prime dimension d."""
    return (d - 1) / d


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--key-length", type=int, default=512)
    ap.add_argument("--trials", type=int, default=10)
    ap.add_argument("--seed", type=int, default=11)
    args = ap.parse_args()

    n = args.key_length
    print(f"{'d':>3} {'p':>6} {'observed':>9} {'predicted':>10} {'3 sigma':>8}")
    for d in (2, 3, 5, 7):
        for p in (0.05, 0.1, 0.2, 0.3):
            spec = ExperimentSpec(
                mode="two_party", d=d, m=2, key_length=n,
                trials=args.trials, master_seed=args.seed,
                channel_kind="depolarizing", noise_p=p,
                abort_threshold=1.0,
            )
            summary = run_experiment(spec)
            predicted = flip_fraction(d) * p
            sigma = math.sqrt(predicted * (1 - predicted) / (n * args.trials))
            flag = "" if abs(summary.mean_error_rate - predicted) < 3 * sigma else "  <-- off"
            print(f"{d:>3} {p:>6.2f} {summary.mean_error_rate:>9.4f} "
                  f"{predicted:>10.4f} {3 * sigma:>8.4f}{flag}")


if __name__ == "__main__":
    main()
