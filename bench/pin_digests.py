"""Pin the direct-route digests that every benchmark run checks.

    python3 bench/pin_digests.py

Writes bench/digests.json: for each workload and each of the seeds 0-99,
a digest of the direct-route exponents of that seed's symbol pairs.  A run
whose seed is pinned must reproduce its digest, and every run reproduces
the digest of seed 0, so a change of element encoding or of the canonical
generator fails the benchmark.  Re-pin only for an intended change of the
direct route's values, and say so in the change that does it.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import worker  # noqa: E402
import workloads  # noqa: E402

PINNED_SEEDS = range(100)


def main() -> int:
    rf = worker.import_resforge(os.path.dirname(HERE))
    pinned = {name: {str(seed): workloads.direct_digest(rf, name, seed)
                     for seed in PINNED_SEEDS}
              for name in workloads.WORKLOADS}
    with open(os.path.join(HERE, "digests.json"), "w") as fh:
        json.dump(pinned, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
