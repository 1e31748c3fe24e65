"""Recompute every query's outcome and check it against its provenance.

Usage: ``python3 perfbench/freeze.py [--seeds 0,1,2] [--workload NAME] [--write]``
from the checkout root.  For each seed, every query runs once as the
benchmark poses it.  Queries whose provenance is an agreement between QQ and
GF(32003) run again with the two fields swapped and must give the same
outcome; closed forms are checked against their formula.  ``--write`` stores
the outcomes as the expected values in ``oracle.json`` once every check has
passed.  The known failure in the ledger must still raise what it records.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from math import comb
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from workloads import ORACLE, WORKLOADS, build  # noqa: E402

CLOSED_FORMS = {
    "ebr-param-R22-QQ": 3,
    "ebr-param-R22-GF": 3,
    "length-ci-quadrics-R31-QQ": [8 * comb(n + 2, 3) for n in range(1, 4)],
    "length-ci-quadrics-R31-GF": [8 * comb(n + 2, 3) for n in range(1, 4)],
    "cli-ebr-mF-22": comb(3, 1),
    "cli-ebr-mF-23": comb(4, 2),
    "cli-ebr-mF-32": comb(4, 1),
}


def outcomes(name, seed, swap, only=None):
    workload = build(name, seed, ROOT / "src", swap_fields=swap)
    tmp = ROOT / ".perfbench_run" / f"freeze-{name}-{seed}-{int(swap)}"
    if workload.cli is not None:
        shutil.rmtree(tmp, ignore_errors=True)
        tmp.mkdir(parents=True)
        workload.cli.start_pass(tmp, False)
    out = {}
    try:
        for query in workload.queries:
            if only is not None and query.qid not in only:
                continue
            try:
                out[query.qid] = ("ok", query.run())
            except Exception as exc:  # recorded and compared with the ledger
                out[query.qid] = ("raised", type(exc).__name__)
            print(f"  {'swapped' if swap else 'posed  '} {query.qid}: {out[query.qid]}", flush=True)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="0")
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--write", action="store_true")
    args = ap.parse_args()
    entries = ORACLE["queries"]
    frozen = {}
    problems = []
    for seed in [int(s) for s in args.seeds.split(",")]:
        for name in [args.workload] if args.workload else WORKLOADS:
            print(f"{name} seed {seed}", flush=True)
            posed = outcomes(name, seed, False)
            agree = {q for q in posed if entries[q]["provenance"].startswith("agreement")}
            swapped = outcomes(name, seed, True, agree)
            for qid, (kind, value) in posed.items():
                known = entries[qid].get("known_failure")
                if kind == "raised":
                    if not known or known["raises"] != value:
                        problems.append(f"{qid} (seed {seed}) raised {value}")
                    continue
                if qid in agree and swapped[qid] != (kind, value):
                    problems.append(f"{qid} (seed {seed}): fields disagree, {value!r} vs {swapped[qid]!r}")
                if qid in CLOSED_FORMS and CLOSED_FORMS[qid] != value:
                    problems.append(f"{qid} (seed {seed}): {value!r} != closed form {CLOSED_FORMS[qid]!r}")
                if frozen.setdefault(qid, value) != value:
                    problems.append(f"{qid}: seed {seed} gives {value!r}, earlier seeds {frozen[qid]!r}")
    for p in problems:
        print("PROBLEM", p)
    if args.write and not problems:
        for qid, value in frozen.items():
            entries[qid]["expected"] = value
        (HERE / "oracle.json").write_text(json.dumps(ORACLE, indent=1) + "\n")
        print(f"wrote {len(frozen)} expected values")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
