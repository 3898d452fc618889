"""Reference outputs: digests of suite reports and of every norm computed.

For each workload and each recorded seed, the first round of the seed's
:class:`workloads.TrialPlan` (one trial of every stratum, at the offsets
the timed loop uses) is run through ``run_suite``, one trial at a time,
with the suites' ``tensor_norm`` wrapped to capture each norm.  Every
(stream, left terms, right terms) combination is therefore pinned to
recorded norms.  The digest covers the rendered reports and all captured
norms, so a wrong norm is caught even when it still satisfies the suite's
law (a constant norm is multiplicative).  Run seed s is checked against
recorded seed s modulo the number of recorded seeds.

Record the digests of the current source (this overwrites reference.json):

    python3 bench/reference.py --seeds 256
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE_FILE = HERE / "reference.json"


def digest(workload, seed):
    """(digest, trials run, trials the suites recorded as failed)."""
    from tensornorm import run_suite, suites
    from workloads import TrialPlan

    norms = []
    original = suites.tensor_norm

    def capture(z):
        n = original(z)
        norms.append(str(n))
        return n

    first_round = TrialPlan(workload, seed).next_round()
    suites.tensor_norm = capture
    try:
        reports = [run_suite(workload.streams[i].suite,
                             workload.streams[i].scenario(seed, offset=offset))
                   for i, offset in first_round]
    finally:
        suites.tensor_norm = original
    h = hashlib.sha256()
    for report in reports:
        h.update(report.render().encode())
    h.update("\n".join(norms).encode())
    failed = sum(len(r.failures) for r in reports)  # at most one per trial
    return h.hexdigest()[:16], len(reports), failed


def load():
    with open(REFERENCE_FILE) as fh:
        return json.load(fh)


def check(workload, seed, table):
    """Run the reference pass; returns (trials, failed, note)."""
    digests = table["workloads"].get(workload.name)
    if digests is None:
        raise SystemExit(f"error: reference.json has no entry for {workload.name}; "
                         "re-record it with bench/reference.py")
    ref_seed = seed % len(digests)
    got, trials, failed = digest(workload, ref_seed)
    if got != digests[ref_seed]:
        return trials, trials, f"MISMATCH at recorded seed {ref_seed}: {got}"
    return trials, failed, f"ok at recorded seed {ref_seed} ({trials} trials)"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=256,
                        help="record seeds 0 .. SEEDS-1")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(HERE.parent / "src"))
    from workloads import WORKLOADS

    table = {"seeds": args.seeds, "workloads": {}}
    for w in WORKLOADS.values():
        digests = []
        for seed in range(args.seeds):
            d, _, failed = digest(w, seed)
            if failed:
                raise SystemExit(f"error: {w.name} seed {seed}: suite failures")
            digests.append(d)
        table["workloads"][w.name] = digests
        print(f"{w.name}: {args.seeds} seeds", file=sys.stderr)
    with open(REFERENCE_FILE, "w") as fh:
        json.dump(table, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
