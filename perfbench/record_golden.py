"""Record the values that later runs of a seed must reproduce.

    python3 perfbench/record_golden.py FIRST_SEED END_SEED

For each seed in [FIRST_SEED, END_SEED) and each workload this stores
the first-pass accuracy figures and, for ``evaluate_oracle``, every
report field.  Run it only at a commit whose outputs are trusted.
Seeds already recorded at the same sizes are overwritten; a change of
sizes starts a new file.
"""

from __future__ import annotations

import json
import sys

from run import SRC, cap_threads


def main() -> int:
    first, end = (int(v) for v in sys.argv[1:3])
    cap_threads()
    sys.path.insert(0, str(SRC))
    from harness import GOLDEN_PATH, golden_sizes, run
    from workloads import FULL, WORKLOADS

    data = {"sizes": golden_sizes(FULL), "seeds": {}}
    if GOLDEN_PATH.is_file():
        old = json.loads(GOLDEN_PATH.read_text())
        if old["sizes"] == data["sizes"]:
            data = old
    for seed in range(first, end):
        entry = {}
        for name in WORKLOADS:
            # Zero seconds: set up, then one pass over the inputs.
            result = run(name, seed, 0.0, False)
            if result.tally.failed:
                print(f"{name} seed {seed} failed: {result.tally.reasons}", file=sys.stderr)
                return 1
            accuracy = WORKLOADS[name].accuracy(result.firsts)
            entry[name] = {k: v for k, (v, _, _) in accuracy.items()}
            if name == "evaluate_oracle":
                entry[name].update(dict(result.firsts))
        data["seeds"][str(seed)] = entry
        data["seeds"] = dict(sorted(data["seeds"].items(), key=lambda kv: int(kv[0])))
        GOLDEN_PATH.write_text(json.dumps(data, indent=1) + "\n")
        print(f"seed {seed} recorded", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
