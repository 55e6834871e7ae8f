"""Quick self-check of the benchmark, one pass per phase on every workload.

Run from the root of a checkout:

    python3 perfbench/selfcheck.py

It runs each workload with ``--seconds 0`` (a single pass) untraced and
traced, and checks that

* every run is correct and prints every metric of BENCHMARK.json, for its
  mode, with the unit given there;
* ``standard``, ``sym-low`` and ``sym-high`` fail no trial;
* every ``sym-high-boundary`` failure is a truncated walk at (2,10,7);
* tracing leaves every outcome unchanged: both runs print the same digest.

Exits 1 and lists the problems when a check fails.
"""

from __future__ import annotations

import json
import os
import sys

from run import run_child

ALLOWED_FAILURES = {
    "standard": {},
    "sym-low": {},
    "sym-high": {},
    "sym-high-boundary": {"truncated": {"q2n10k7"}},
}


def _line(out: str, prefix: str) -> str:
    return next(line[len(prefix):] for line in out.splitlines()
                if line.startswith(prefix))


def check(spec: dict, seed: int = 1) -> list[str]:
    problems = []
    for workload, allowed in ALLOWED_FAILURES.items():
        digests = {}
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            out, result = run_child(workload, seed, 0, trace)
            where = f"{workload} trace {trace}"
            if not result["correct"]:
                problems.append(f"{where}: not correct")
            for entry in spec[key]:
                got = result["metrics"].get(entry["name"])
                if got is None:
                    problems.append(f"{where}: metric {entry['name']} missing")
                elif got["unit"] != entry["unit"]:
                    problems.append(f"{where}: {entry['name']} in {got['unit']}, "
                                    f"not {entry['unit']}")
            extra = set(result["metrics"]) - {e["name"] for e in spec[key]}
            if extra:
                problems.append(f"{where}: metrics not in BENCHMARK.json: {sorted(extra)}")
            failures = json.loads(_line(out, "failures "))
            for category, by_code in failures.items():
                for label in by_code:
                    if label not in allowed.get(category, ()):
                        problems.append(f"{where}: {by_code[label]} trials failed "
                                        f"as {category} at {label}")
            digests[trace] = _line(out, "digest ")
        if digests[0] != digests[1]:
            problems.append(f"{workload}: tracing changed the outcome digest")
    return problems


def main() -> int:
    with open(os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           os.pardir, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    problems = check(spec)
    for msg in problems:
        print(f"selfcheck: {msg}")
    print("selfcheck: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
