"""Self-test of the benchmark's ``sim_digest``.

Run from the repository root::

    python3 perfbench/selftest.py

For every workload in ``BENCHMARK.json``, one input seed is run twice,
each time in a fresh worker process, and a second seed once.  The two
runs of one seed must give the same digest and the other seed a
different one: otherwise the digest could not show that a change left
every simulated statistic of its parent identical.  Exits 1 on failure.
"""

from __future__ import annotations

import json
import sys
import time

from run import ROOT, spawn, sub_seed


def main() -> int:
    scratch = ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = 0
    for workload in (w["name"] for w in spec["workloads"]):
        deadline = time.monotonic() + 170.0
        first, again, other = (
            spawn(workload, sub_seed(seed, 0), "plain", scratch, deadline)
            for seed in (7, 7, 8)
        )
        same = first["sim_digest"] == again["sim_digest"]
        differs = other["sim_digest"] != first["sim_digest"]
        print(
            f"{workload}: same seed -> {'same' if same else 'DIFFERENT'} "
            f"digest; other seed -> {'different' if differs else 'SAME'} digest"
        )
        failures += not (same and differs)
    print("selftest", "FAILED" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
