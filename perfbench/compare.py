"""Compare two saved benchmark outputs of the same workload.

    python3 perfbench/compare.py BEFORE.out AFTER.out

Each file is the standard output of one ``perfbench/run.py`` run: the
provenance line followed by the result line.  Runs whose generated inputs
differ (another seed, or another benchmark version) are refused with exit
code 2, since their numbers do not measure the same work.
"""

from __future__ import annotations

import json
import sys

#: Provenance fields that must agree for two runs to be comparable.
SAME = ("workload", "inputs_digest", "seconds", "trace")


def load(path: str) -> tuple[dict, dict]:
    lines = [ln for ln in open(path, encoding="utf-8").read().splitlines() if ln]
    return json.loads(lines[-2])["provenance"], json.loads(lines[-1])


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    (prov_a, res_a), (prov_b, res_b) = load(argv[0]), load(argv[1])
    differ = [f for f in SAME if prov_a.get(f) != prov_b.get(f)]
    if differ:
        print("refusing to compare: runs differ in " + ", ".join(
            f"{f} ({prov_a.get(f)!r} vs {prov_b.get(f)!r})" for f in differ),
            file=sys.stderr)
        return 2
    print(f"{prov_a['workload']}: {prov_a.get('git_sha')} -> {prov_b.get('git_sha')}")
    for name, a in res_a["metrics"].items():
        b = res_b["metrics"].get(name)
        if b is None:
            continue
        change = (b["value"] / a["value"] - 1.0) if a["value"] else float("nan")
        print(f"  {name:34s} {a['value']:14.6g} {b['value']:14.6g} "
              f"{change:+8.1%} {a['unit']}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
