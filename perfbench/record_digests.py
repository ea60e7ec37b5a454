"""Regenerate digests.json: output digests of each workload at its default seed,
and of its set-up probe (the same configuration at N = 1, one trial).

    python3 perfbench/record_digests.py

Run it only for a deliberate, documented change to the program's outputs;
the recorded digests are what every benchmark run checks the program against.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import tempfile

from check import DIGESTS_PATH, output_digests, sha256
from run import ROOT, Experiment, import_program
from workloads import DEFAULT_PROGRAM_SEED, WORKLOADS


def main() -> int:
    cli = import_program()
    digests = {}
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
        for name, w in WORKLOADS.items():
            outputs, _ = Experiment(workdir, w).run(cli, DEFAULT_PROGRAM_SEED)
            if outputs is None:
                print(f"error: workload {name} failed", file=sys.stderr)
                return 1
            digests[name] = output_digests(outputs)
            probe = dataclasses.replace(w, n=1, trials=1, transcript=False)
            probe_outputs, _ = Experiment(workdir, probe).run(cli, DEFAULT_PROGRAM_SEED)
            digests[name]["setup_summary"] = sha256(probe_outputs["summary"])
    with open(DIGESTS_PATH, "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
