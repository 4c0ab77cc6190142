"""The repository's benchmark: one workload, measured end to end or by layer.

Run from the repository root::

    python3 perfbench/run.py --workload paper_tables --seed 1 --seconds 35 --trace 0

Each iteration runs in a fresh worker process (``worker.py``), one at a
time, on its own input drawn from a sub-seed of ``--seed``.  A run makes
``seconds / iteration_s`` iterations (at least three) and reports
medians over them, except the replay rate, which is the run's records
over its timed seconds.  All timings are host seconds -- what the
simulator costs -- never simulated time.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the
first input three times -- untraced, with spans and GC callbacks, and
under a profile -- and reports the per-layer metrics.  Names and units
are the ones ``BENCHMARK.json`` declares.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.  Every run also writes its stamped record, per-iteration
results and spans to ``.perfbench/results/``.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_ITERATIONS = 3
#: A run must end well inside the 180 s every invocation is allowed.
DEADLINE_S = 170.0


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 1


def git_state() -> tuple[str | None, bool | None]:
    """(commit, dirty) of the checkout, or (None, None) outside git."""
    if not (ROOT / ".git").exists():
        return None, None
    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30, check=True,
        ).stdout.strip()
        status = subprocess.run(
            ["git", "-C", str(ROOT), "status", "--porcelain"],
            capture_output=True, text=True, timeout=30, check=True,
        ).stdout
    except (OSError, subprocess.SubprocessError):
        return None, None
    return commit, bool(status.strip())


def code_sha256() -> str:
    """Fingerprint of the code measured: the library and the benchmark."""
    digest = hashlib.sha256()
    files = sorted((ROOT / "src" / "repro").rglob("*.py")) + sorted(HERE.glob("*.py"))
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def machine() -> dict:
    mem_mb = None
    try:
        for line in Path("/proc/meminfo").read_text().splitlines():
            if line.startswith("MemTotal:"):
                mem_mb = int(line.split()[1]) // 1024
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "mem_total_mb": mem_mb,
    }


def spawn(workload: str, seed: int, mode: str, scratch: Path, deadline: float) -> dict:
    """Run one iteration in a fresh process and return its result."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise TimeoutError("no time left for another iteration")
    command = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", workload, "--seed", str(seed), "--mode", mode,
        "--scratch", str(scratch), "--spawned-at", repr(time.monotonic()),
    ]
    proc = subprocess.run(
        command, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=timeout
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{mode} iteration exited with {proc.returncode}")
    return json.loads(lines[-1])


def sub_seed(seed: int, index: int) -> int:
    """The input seed of iteration ``index`` of a run with ``seed``."""
    return seed * 1000 + index


def end_to_end(plain: list[dict]) -> dict[str, float]:
    """Medians over the run's iterations, in reference-host seconds
    (``hostspeed``); the replay rate is the run's work completed per
    second -- every record replayed in the run over its timed seconds.
    The ``host_*`` figures are the same in raw host seconds."""
    records = sum(r["records_replayed"] for r in plain)

    def median(key: str) -> float:
        return statistics.median(r[key] for r in plain)

    return {
        "replay_records_per_s": records / sum(r["wall_s"] for r in plain),
        "peak_rss_mb": median("peak_rss_mb"),
        "setup_s": median("setup_s"),
        "wall_s": median("wall_s"),
        "host_replay_records_per_s": records / sum(r["host_wall_s"] for r in plain),
        "host_setup_s": median("host_setup_s"),
        "host_wall_s": median("host_wall_s"),
        "host_slowdown": median("host_slowdown"),
    }


#: Experiments whose own (self) time is each layer's table work; the
#: inputs they build are child spans and counted elsewhere.
SECTION4 = ("table1", "table2", "table3", "figure1", "figure2", "figure3", "figure4")
CACHING = tuple(f"table{i}" for i in range(4, 10))
CONSISTENCY = ("table10", "table11", "table12")


def per_layer(plain: list[dict], spans: dict, profile: dict) -> dict[str, float]:
    """Layer metrics from the traced iterations, in raw host seconds
    like the spans they come from (see README.md)."""
    wall = plain[0]["host_wall_s"]
    totals = spans["span_totals"]

    def total(name: str, key: str = "total") -> float:
        return totals.get(name, {}).get(key, 0.0)

    def experiments_self(ids) -> float:
        return sum(total(f"experiment.{e}", "self") for e in ids)

    counts = dict(spans["counts"])
    gen_s = total("workload.generate_trace")
    # Records generated inside the timed section: 0 where a workload
    # generates its input during set-up.
    records = counts.pop("workload.records", 0)
    metrics = {
        "workload.gen_s": gen_s,
        "workload.records": records,
        "workload.records_per_s": records / gen_s if gen_s else 0.0,
        "analysis.accesses_s": total("pipeline.build_accesses", "self"),
        "analysis.section4_s": experiments_self(SECTION4),
        "caching.tables_s": experiments_self(CACHING),
        "consistency.tables_s": experiments_self(CONSISTENCY),
        "fs.construct_s": total("fs.construct"),
        "fs.replay_s": total("fs.replay"),
        "pipeline.cache_put_s": total("pipeline.cache_put"),
        "pipeline.cache_get_s": total("pipeline.cache_get"),
        "pipeline.merge_s": total("pipeline.merge"),
        "gc.collections": spans["gc"]["collections"],
        "gc.full_collections": spans["gc"]["full_collections"],
        "gc.pause_s": spans["gc"]["pause_s"],
        "gc.pause_share": spans["gc"]["pause_s"] / spans["host_wall_s"],
        "trace.overhead_s": spans["host_wall_s"] - wall,
        "trace.profile_overhead_s": profile["host_wall_s"] - wall,
    }
    metrics.update(counts)
    # The profile's share of each module, applied to the untraced wall.
    for module, share in profile["shares"].items():
        metrics[f"self_s.{module}"] = share * wall
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro" / "__init__.py").is_file() or not spec_path.is_file():
        return fail(f"no repro sources or BENCHMARK.json under {ROOT}")
    spec = json.loads(spec_path.read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        return fail(f"unknown workload {args.workload!r}")

    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS  # noqa: E402

    workload = WORKLOADS[args.workload]
    scratch = ROOT / ".perfbench"
    (scratch / "results").mkdir(parents=True, exist_ok=True)
    commit, dirty = git_state()
    stamp = {
        "workload": args.workload,
        "seed": args.seed,
        "sizes": workload.sizes,
        "commit": commit,
        "dirty": dirty,
        "code_sha256": code_sha256(),
        "machine": machine(),
        "seconds": args.seconds,
        "trace": args.trace,
    }

    # Each iteration replays its own input, drawn from a sub-seed of
    # --seed: a run's medians then average over many independent
    # populations instead of one heavy-tailed draw.  The iteration count
    # follows from --seconds alone, so one seed always means one input set.
    count = max(MIN_ITERATIONS, round(args.seconds / workload.iteration_s))
    seeds = [sub_seed(args.seed, i) for i in range(count)]
    plain: list[dict] = []
    traced: dict[str, dict] = {}
    try:
        if args.trace:
            plain.append(spawn(args.workload, seeds[0], "plain", scratch, deadline))
            for mode in ("spans", "profile"):
                traced[mode] = spawn(args.workload, seeds[0], mode, scratch, deadline)
        else:
            for seed in seeds:
                plain.append(spawn(args.workload, seed, "plain", scratch, deadline))
    except (OSError, RuntimeError, TimeoutError, subprocess.SubprocessError, ValueError) as exc:
        return fail(f"{args.workload}: {exc}")

    everything = plain + list(traced.values())
    errors = [(name, error) for r in everything for name, error in r["ops"] if error]
    # Determinism: each traced re-run of the first input, in its own
    # fresh process, reproduces that input's digest.
    reruns = list(traced.values())
    attempted = sum(len(r["ops"]) for r in everything) + len(reruns)
    errors.extend(
        ("determinism", f"{r['sim_digest']} != {plain[0]['sim_digest']}")
        for r in reruns
        if r["sim_digest"] != plain[0]["sim_digest"]
    )
    correct = not errors
    run_digest = hashlib.sha256(
        "".join(r["sim_digest"] for r in plain).encode()
    ).hexdigest()

    values = end_to_end(plain)
    if args.trace:
        values.update(per_layer(plain, traced["spans"], traced["profile"]))
        for m in declared:  # pipeline stages and caches a workload never uses
            if m["name"].startswith("pipeline."):
                values.setdefault(m["name"], 0.0)
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        return fail(f"metrics not measured: {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}

    stamp["iterations"] = len(plain)
    stamp["input_seeds"] = seeds[: len(plain)]
    stamp["sim_digest"] = run_digest
    record = {
        "stamp": stamp,
        "metrics": values,
        "errors": errors,
        "plain": plain,
        "traced": traced,
    }
    suffix = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (scratch / "results" / suffix).write_text(json.dumps(record, indent=1))

    for name, error in errors:
        print(f"FAILED {name}: {error}")
    print("stamp " + json.dumps(stamp, sort_keys=True))
    print(f"sim_digest {stamp['sim_digest']}")
    print(
        f"fail_share {len(errors) / attempted:.6g} ratio "
        f"({len(errors)} of {attempted} operations failed)"
    )
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    # Printed, not gated: see README.md.
    units.update(wall_s="s", host_wall_s="s", host_setup_s="s", host_slowdown="x")
    units["host_replay_records_per_s"] = "records/s"
    for name, value in values.items():
        print(f"{name} {value:.6g} {units.get(name, '')}".rstrip())
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": len(errors),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
