"""One benchmark iteration in a fresh process.

Usage (``run.py`` spawns this; it is not meant to be run by hand)::

    python3 perfbench/worker.py --workload NAME --seed N --mode MODE \
        --scratch DIR --spawned-at MONOTONIC

``--mode`` is ``plain`` (untraced: the end-to-end figures), ``spans``
(layer spans and GC pauses) or ``profile`` (a deterministic profile
aggregated by module).  The last line of standard output is one JSON
object with the iteration's timings, checks, digest and work counts.

``setup_s`` runs from ``--spawned-at`` (``run.py``'s monotonic clock
just before the spawn, which on Linux is the same system-wide clock)
to the start of the timed section: interpreter start, imports and the
workload's untimed input preparation.  ``setup_s`` and ``wall_s`` are in
reference-host seconds (``hostspeed``), ``host_setup_s`` and
``host_wall_s`` the raw host seconds.  The profile mode runs without
the probe, so that the probe does not enter the profile.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
from contextlib import nullcontext
from pathlib import Path

from hostspeed import HostSpeed

ROOT = Path(__file__).resolve().parent.parent


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its waited-for
    children (``ru_maxrss`` is in KiB on Linux)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("plain", "spans", "profile"), default="plain")
    parser.add_argument("--scratch", type=Path, required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    args = parser.parse_args()
    speed = HostSpeed()
    if args.mode != "profile":
        speed.start()  # before the imports, which set-up pays for

    sys.path.insert(0, str(ROOT / "src"))
    from tracing import GcMeter, SpanRecorder, module_profile
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, args.scratch)
    workload.setup()
    recorder = SpanRecorder()
    gc_meter = GcMeter()
    shares: dict[str, float] = {}
    instrument = nullcontext()
    if args.mode == "spans":
        recorder.install()
        workload.span = recorder.span
        instrument = gc_meter
    elif args.mode == "profile":
        instrument = module_profile(shares)

    start = time.monotonic()
    timed_from = speed.mark()
    with instrument:
        workload.run()
    wall = time.monotonic() - start
    timed_to = speed.mark()
    speed.stop()
    recorder.uninstall()

    try:
        outcome = workload.check()
    finally:
        workload.close()
    digest = hashlib.sha256()
    for part in outcome.digest_parts:
        digest.update(part.encode("utf-8"))
        digest.update(b"\n")
    setup = start - args.spawned_at
    out = dict(
        wall_s=speed.reference_seconds(wall, timed_from, timed_to),
        setup_s=speed.reference_seconds(setup, 0, timed_from),
        host_wall_s=wall,
        host_setup_s=setup,
        host_slowdown=speed.slowdown(timed_from, timed_to),
        peak_rss_mb=peak_rss_mb(),
        records_replayed=outcome.records_replayed,
        ops=outcome.ops,
        sim_digest=digest.hexdigest(),
        counts=outcome.counts,
    )
    if args.mode == "spans":
        out["spans"] = recorder.spans
        out["span_totals"] = recorder.totals()
        out["gc"] = {
            "collections": gc_meter.collections,
            "full_collections": gc_meter.full_collections,
            "pause_s": gc_meter.pause_s,
        }
    if args.mode == "profile":
        out["shares"] = shares
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
