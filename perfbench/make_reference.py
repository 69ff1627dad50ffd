"""Regenerate ``reference.json``, the stored values the output checks use.

* ``suite_digests``: for seeds 0-99 and the held-out seed of
  ``predictions.json``, each built-in scenario's record-table digest
  from an uncached ``Session.run`` of the whole suite.  Scalar
  records are bit-exact per seed, so cold and warm passes must match.
* ``campaigns``: per campaign scenario, the response means and standard
  deviations of a large scalar-path (``batch_size=None``) run.  Batched
  passes must land within a Monte-Carlo bound of them.

Run from the repository root (takes several minutes)::

    python3 perfbench/make_reference.py
"""

from __future__ import annotations

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402
from repro.api import Session  # noqa: E402

#: Seed and size of the scalar-path campaign references.
CAMPAIGN_REFERENCE_SEED = 20130624
CAMPAIGN_REFERENCE_REPLICATIONS = 20000
#: Seeds whose suite digests are stored, besides the held-out seed.
SUITE_SEEDS = range(100)


def main() -> int:
    with open(os.path.join(HERE, "predictions.json"), encoding="utf-8") as f:
        held_out_seed = json.load(f)["held_out_seed"]
    session = Session()
    names = [s.name for s in session.scenarios()]
    digests = {}
    for seed in [*SUITE_SEEDS, held_out_seed]:
        start = time.perf_counter()
        digests[str(seed)] = workloads.suite_digests(
            session.run(names, seed=seed)
        )
        print(f"suite seed {seed}: {time.perf_counter() - start:.2f} s",
              file=sys.stderr)

    campaigns = {}
    for params in (workloads.IMPAIR, workloads.STREAM):
        result = session.campaign(
            params["scenario"],
            CAMPAIGN_REFERENCE_REPLICATIONS,
            seed=CAMPAIGN_REFERENCE_SEED,
        )
        moments = workloads.column_moments(result.table)
        campaigns[params["scenario"]] = {
            "seed": CAMPAIGN_REFERENCE_SEED,
            "replications": CAMPAIGN_REFERENCE_REPLICATIONS,
            "mean": {c: m[1] for c, m in moments.items()},
            "sd": {c: m[2] ** 0.5 for c, m in moments.items()},
        }
        print(f"campaign {params['scenario']}: {campaigns[params['scenario']]}",
              file=sys.stderr)

    with open(os.path.join(HERE, "reference.json"), "w",
              encoding="utf-8") as handle:
        json.dump(
            {"suite_digests": digests, "campaigns": campaigns},
            handle,
            indent=1,
            sort_keys=True,
        )
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
