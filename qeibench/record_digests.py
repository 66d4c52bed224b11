"""Record the output digests that later runs are checked against.

Usage: ``python3 qeibench/record_digests.py [first_seed last_seed]``
(serve-mixed seeds, default 0 63).  A pass with any failed op is reported
and not recorded.  Run it on a commit whose simulated outputs are trusted;
a change that is meant to alter what the model simulates records anew.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import bench  # noqa: E402  (needs the program on sys.path)


def record(workload, seed):
    bench.reset_process_memos()
    outcome = bench.run_pass(workload, workload.inputs(seed), None)
    if outcome.failed:
        print(f"{workload.name} seed {seed}: NOT recorded: {outcome.problems}")
        return None
    print(f"{workload.name} seed {seed}: {outcome.digest}", flush=True)
    return outcome.digest


def main(first: int = 0, last: int = 63) -> None:
    digests = {}
    for workload in bench.WORKLOADS.values():
        seeds = range(first, last + 1) if workload.seeded else [first]
        table = {}
        for seed in seeds:
            digest = record(workload, seed)
            if digest is not None:
                table[str(seed) if workload.seeded else bench.ANY_SEED] = digest
        digests[workload.name] = table
    bench.DIGEST_FILE.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main(*map(int, sys.argv[1:3]))
