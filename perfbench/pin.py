"""Regenerate ``expected.json``: the exact counts of every sweep point.

Run from the root of a checkout:

    python3 perfbench/pin.py

The counts are independent of the seed (I/O does not depend on matrix
values), so the file holds one entry per seed-free point identity.  Only
re-pin after a change that is meant to alter the counts.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    sys.path.insert(0, str(Path.cwd() / "src"))
    import points
    from repro.engine import execute_point

    pins = {}
    for _, _, pts in points.all_sweeps(seed=0):
        for point in pts:
            metrics, _, _ = execute_point(point.to_dict())
            pins[points.pin_id(point)] = points.count_signature(point.kind, metrics)
    out = HERE / "expected.json"
    lines = [f"{json.dumps(k)}: {json.dumps(pins[k])}" for k in sorted(pins)]
    out.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
    print(f"{len(pins)} points pinned -> {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
