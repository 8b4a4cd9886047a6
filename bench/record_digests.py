"""Record the output digests of every job of the pinned seeds.

    python3 bench/record_digests.py

Runs each distinct job of every workload once per pinned seed against
``src/`` and writes ``bench/digests.json``.  A job whose verdict checks
fail is reported and not recorded.  Rerun it only when an output change
is intended; outputs are otherwise meant to stay byte-identical.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

import jobs
from run import SRC, WORK


def main() -> int:
    spec = jobs.load_spec()
    sys.path.insert(0, SRC)
    import moebius_dual as md
    import moebius_dual.cli as cli

    table = {}
    bad = 0
    os.makedirs(WORK, exist_ok=True)
    for workload in sorted(spec["workloads"]):
        for seed in spec["pinned_seeds"]:
            rounds = jobs.generate(workload, seed, spec)
            workdir = tempfile.mkdtemp(prefix="record-", dir=WORK)
            try:
                jobs.write_inputs(rounds, workdir)
                for job in (j for r in rounds for j in r):
                    key = jobs.digest_key(job)
                    if key in table:
                        continue
                    outcome = jobs.run_job(job, md, cli, workdir)
                    reason = jobs.check(job, outcome, {}, False, {})
                    if reason:
                        bad += 1
                        print(f"{workload} seed {seed} {job.label}: {reason}", file=sys.stderr)
                        continue
                    table[key] = jobs.output_digest(outcome)
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            print(f"{workload} seed {seed}: {len(table)} digests so far", flush=True)
    with open(jobs.DIGESTS_PATH, "w") as fh:
        json.dump(dict(sorted(table.items())), fh, indent=0)
        fh.write("\n")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
