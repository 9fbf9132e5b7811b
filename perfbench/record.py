"""Record the output digests of finished runs as the expected values.

    python3 perfbench/record.py

Reads every run record in `perfbench/results/` that has no failures and
adds its digests to `perfbench/digests.json` under its workload and seed.
A digest that differs from one already recorded is reported and nothing is
written, so a change of output bytes is never recorded by accident: remove
the old entry by hand when the change is intended.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "digests.json"


def main() -> int:
    table = json.loads(DIGESTS.read_text(encoding="utf-8")) if DIGESTS.exists() else {}
    conflicts = []
    added = 0
    for path in sorted((HERE / "results").glob("*.json")):
        doc = json.loads(path.read_text(encoding="utf-8"))
        if doc["failures"] or not doc["digests"]:
            continue
        entry = table.setdefault(doc["workload"], {}).setdefault(
            str(doc["machine"]["seed"]), {}
        )
        for name, value in doc["digests"].items():
            if name not in entry:
                entry[name] = value
                added += 1
            elif entry[name] != value:
                conflicts.append(f"{path.name}: {name} {value} != recorded {entry[name]}")
    if conflicts:
        print("\n".join(conflicts), file=sys.stderr)
        return 1
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"recorded {added} new digests in {DIGESTS.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
