"""The benchmark's workloads, each driven through repro's public API.

A workload is built in three steps inside one fresh worker process:

* ``setup()`` -- untimed input preparation (counted in ``setup_s``);
* ``run()`` -- the timed section.  Every checked operation catches its
  own exception, so a failure is counted, never fatal;
* ``check()`` -- seed-independent correctness checks, the simulated
  outputs that feed ``sim_digest``, and deterministic work counts.

Simulated quantities never enter a timing: they are checked, hashed
and reported as per-layer work counts only.
"""

from __future__ import annotations

import math
import shutil
import tempfile
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

from repro.experiments import ExperimentContext, run_experiment
from repro.fs import ClusterConfig, FaultConfig, ProtocolOracle
from repro.fs.cluster import run_cluster_on_trace
from repro.fs.counters import ClientCounters
from repro.pipeline import PipelineReport
from repro.pipeline import scaleout
from repro.pipeline.scaleout import (
    ScaleOutPlan,
    build_group_traces,
    run_partitioned_replay,
)
from repro.trace.columnar import RECORD_CLASSES
from repro.trace.records import OpenRecord
from repro.workload import STANDARD_PROFILES, generate_trace

#: The sixteen experiments of the paper (Tables 1-12, Figures 1-4).
PAPER_EXPERIMENTS = tuple(f"table{i}" for i in range(1, 13)) + tuple(
    f"figure{i}" for i in range(1, 5)
)

#: Fault load of the chaos replay: every robustness layer is entered --
#: crashes and partitions, a lossy at-most-once transport, replica
#: fan-out with re-replication, and silent disk faults under scrubbing.
CHAOS_FAULTS = FaultConfig(
    server_crash_rate=0.5,
    server_downtime=40.0,
    client_crash_rate=0.2,
    partition_rate=0.2,
    partition_duration=20.0,
    message_loss_rate=0.01,
    message_duplicate_rate=0.01,
    message_reorder_rate=0.01,
    disk_corruption_rate=0.4,
    disk_torn_write_rate=0.2,
    disk_lost_write_rate=0.2,
)

_OPEN_KIND = RECORD_CLASSES.index(OpenRecord)


@dataclass
class Outcome:
    """What ``check()`` hands back for one iteration."""

    #: (operation, error or None) per checked operation.
    ops: list[tuple[str, str | None]]
    records_replayed: int
    #: Simulated outputs, in a fixed order, hashed into ``sim_digest``.
    digest_parts: list[str]
    #: Deterministic per-layer work counts.
    counts: dict[str, float] = field(default_factory=dict)


def conservation_errors(result, opens: int) -> list[str]:
    """The client/server conservation identities every fault-free
    replay satisfies (the cross-checks of ``tests/test_crosschecks.py``)."""
    total = ClientCounters.aggregate(result.final_counters.values())
    server = result.server_counters
    identities = {
        "block-read bytes": server.block_read_bytes
        == total.cache_read_miss_bytes + total.write_fetch_bytes,
        "writeback bytes": server.block_write_bytes
        == total.bytes_written_to_server,
        "passthrough bytes": server.passthrough_read_bytes
        == total.shared_bytes_read + total.directory_bytes_read
        and server.passthrough_write_bytes == total.shared_bytes_written,
        "paging bytes": server.paging_bytes
        == total.paging_backing_bytes_read + total.paging_backing_bytes_written,
        "opens counted once": server.open_rpcs == opens == total.file_open_ops,
    }
    return [name for name, holds in identities.items() if not holds]


def replay_error(result, records: int, opens: int | None) -> str | None:
    """Every record dispatched exactly once, plus (for a fault-free
    replay, ``opens`` given) the conservation identities."""
    problems = []
    if result.records_replayed != records:
        problems.append(
            f"replayed {result.records_replayed} of {records} records"
        )
    if opens is not None:
        problems.extend(conservation_errors(result, opens))
    return "; ".join(problems) or None


def counter_rows(result) -> list[str]:
    """A replay's simulated state: every client's and server's counters."""
    rows = [
        f"client {cid} {result.final_counters[cid].digest()}"
        for cid in sorted(result.final_counters)
    ]
    rows.extend(
        f"server {index} {row.digest()}"
        for index, row in enumerate(result.per_server_counters)
    )
    rows.append(f"aggregate {result.server_counters.digest()}")
    rows.append(f"records {result.records_replayed}")
    return rows


def fs_counts(results, oracle=None) -> dict[str, float]:
    """Per-layer work counts of ``repro.fs`` from finished replays."""
    clients = ClientCounters.aggregate(
        c for r in results for c in r.final_counters.values()
    )
    servers = [r.server_counters for r in results]

    def server_sum(name: str) -> int:
        return sum(getattr(s, name) for s in servers)

    records = sum(r.records_replayed for r in results)
    rpcs = server_sum("rpc_count")
    hits = server_sum("server_cache_hits")
    lookups = hits + server_sum("server_cache_misses")
    return {
        "fs.records": records,
        "fs.rpcs": rpcs,
        "fs.rpcs_per_record": rpcs / records if records else 0.0,
        "fs.client_read_hit_ratio": (
            1.0 - clients.cache_read_misses / clients.cache_read_ops
            if clients.cache_read_ops
            else 0.0
        ),
        "fs.server_cache_hit_ratio": hits / lookups if lookups else 0.0,
        "fs.snapshots": sum(
            len(snaps) for r in results for snaps in r.snapshots.values()
        ),
        "sim.tick_events": sum(r.tick_events for r in results),
        "rpc.retransmissions": clients.rpc_retransmissions,
        "rpc.duplicates_suppressed": server_sum("duplicate_rpcs_suppressed"),
        "rpc.dedup_evictions": server_sum("dedup_evictions"),
        "replication.failure_detections": server_sum("failure_detections"),
        "replication.rereplication_blocks": server_sum("rereplication_blocks"),
        "integrity.scrub_blocks_checked": server_sum("scrub_blocks_checked"),
        "integrity.blocks_repaired": server_sum("blocks_repaired"),
        "faults.crashes": server_sum("crashes") + clients.crashes,
        "oracle.checks": oracle.checks_run if oracle is not None else 0,
        "oracle.violations": len(oracle.violations) if oracle is not None else 0,
    }


def stage_counts(report: PipelineReport) -> dict[str, float]:
    out: dict[str, float] = {}
    for stage in report.stages:
        key = f"pipeline.stage_s.{stage.stage}"
        out[key] = out.get(key, 0.0) + stage.seconds
    return out


def _failure(exc: BaseException) -> str:
    return "".join(traceback.format_exception_only(type(exc), exc)).strip()


class Workload:
    """Base class: ``sizes`` are stamped into every result."""

    name = ""
    sizes: dict = {}
    #: Nominal seconds of one iteration (spawn to exit) on the reference
    #: host; a run of ``--seconds`` makes about ``seconds / iteration_s``
    #: iterations.  A constant, so the iteration count -- and with it the
    #: run's input set -- never depends on how fast the host is.
    iteration_s = 1.0
    #: Replaced by the traced run's span recorder.
    span = staticmethod(nullcontext)

    def __init__(self, seed: int, scratch: Path) -> None:
        self.seed = seed
        self.scratch = scratch

    def setup(self) -> None:
        pass

    def run(self) -> None:
        raise NotImplementedError

    def check(self) -> Outcome:
        raise NotImplementedError

    def close(self) -> None:
        pass


class PaperTables(Workload):
    """All sixteen paper experiments from one ``ExperimentContext``,
    against a fresh, empty artifact-cache directory."""

    name = "paper_tables"
    sizes = {"scale": 0.05, "experiments": len(PAPER_EXPERIMENTS)}
    iteration_s = 5.5

    def setup(self) -> None:
        self.cache_dir = Path(tempfile.mkdtemp(prefix="cache-", dir=self.scratch))
        self.ctx = ExperimentContext(
            scale=self.sizes["scale"], seed=self.seed, cache=self.cache_dir
        )
        self.results: dict[str, object] = {}

    def run(self) -> None:
        for experiment in PAPER_EXPERIMENTS:
            try:
                with self.span(f"experiment.{experiment}"):
                    self.results[experiment] = run_experiment(experiment, self.ctx)
            except Exception as exc:  # counted as a failed operation
                self.results[experiment] = exc

    def check(self) -> Outcome:
        ops: list[tuple[str, str | None]] = []
        parts: list[str] = []
        for experiment in PAPER_EXPERIMENTS:
            result = self.results[experiment]
            if isinstance(result, Exception):
                ops.append((experiment, _failure(result)))
                continue
            bad = sorted(
                k for k, v in result.metrics.items() if not math.isfinite(v)
            )
            error = None
            if not result.rendered.strip():
                error = "empty rendering"
            elif bad:
                error = f"non-finite metrics {bad}"
            ops.append((experiment, error))
            parts.append(result.rendered)
            parts.extend(f"{k}={v!r}" for k, v in sorted(result.metrics.items()))

        traces, replays = [], []
        try:
            traces = self.ctx.traces()
            replays = self.ctx.cluster_results()
        except Exception as exc:
            ops.append(("replays", _failure(exc)))
        for index, result in zip(self.ctx.cluster_trace_indexes, replays):
            records = traces[index].records
            opens = sum(1 for r in records if type(r) is OpenRecord)
            ops.append(
                (f"replay trace{index + 1}", replay_error(result, len(records), opens))
            )
            parts.extend(counter_rows(result))

        counts = fs_counts(replays)
        counts.update(stage_counts(self.ctx.pipeline_report))
        counts["workload.records"] = sum(t.record_count for t in traces)
        counts["pipeline.cache_bytes"] = sum(
            p.stat().st_size for p in self.cache_dir.rglob("*") if p.is_file()
        )
        return Outcome(
            ops=ops,
            records_replayed=sum(r.records_replayed for r in replays),
            digest_parts=parts,
            counts=counts,
        )

    def close(self) -> None:
        shutil.rmtree(self.cache_dir, ignore_errors=True)


class ChaosReplay(Workload):
    """One faulty, lossy, replicated, scrubbed replay of a fixed record
    budget of trace1, with a collection-mode protocol oracle attached.

    The trace is generated during set-up; the timed section replays the
    first ``records`` records of the day (the whole day when shorter),
    so the timed work does not swing with the seed's population.
    """

    name = "chaos_replay"
    iteration_s = 3.3
    sizes = {
        "scale": 0.15,
        "records": 20_000,
        "clients": 6,
        "servers": 4,
        "replication_factor": 2,
        "scrub_interval": 3600.0,
    }

    def setup(self) -> None:
        trace = generate_trace(
            STANDARD_PROFILES[0], seed=self.seed, scale=self.sizes["scale"]
        )
        self.records = trace.records[: self.sizes["records"]]
        self.duration = trace.duration
        self.config = ClusterConfig(
            client_count=self.sizes["clients"],
            num_servers=self.sizes["servers"],
            replication_factor=self.sizes["replication_factor"],
            scrub_interval=self.sizes["scrub_interval"],
            faults=CHAOS_FAULTS,
        )
        self.oracle = ProtocolOracle(seed=self.seed, raise_on_violation=False)
        self.result: object = None

    def run(self) -> None:
        try:
            with self.span("chaos.run_cluster_on_trace"):
                self.result = run_cluster_on_trace(
                    self.records,
                    self.duration,
                    self.config,
                    seed=self.seed,
                    oracle=self.oracle,
                )
        except Exception as exc:
            self.result = exc

    def check(self) -> Outcome:
        if isinstance(self.result, Exception):
            return Outcome([("chaos replay", _failure(self.result))], 0, [])
        result = self.result
        problems = [replay_error(result, len(self.records), None)]
        if self.oracle.violations:
            problems.append(
                f"{len(self.oracle.violations)} oracle violations, first: "
                f"{self.oracle.violations[0]}"
            )
        error = "; ".join(p for p in problems if p) or None
        parts = counter_rows(result) + [
            f"oracle {self.oracle.checks_run} {len(self.oracle.violations)}"
        ]
        return Outcome(
            ops=[("chaos replay", error)],
            records_replayed=result.records_replayed,
            digest_parts=parts,
            counts=fs_counts([result], self.oracle),
        )


class ScaleOut(Workload):
    """Partitioned generation and owned-only shard replay of a grouped
    trace1 population, merged into one cluster result."""

    name = "scaleout"
    sizes = {"scale": 0.25, "groups": 5, "shards": 4}
    iteration_s = 4.2

    def setup(self) -> None:
        # The shard results are checked one by one, so keep what
        # run_partitioned_replay hands to the merge.
        merge = scaleout.merge_cluster_results

        def keep_shards(results, owned_groups):
            self.shards = list(zip(results, owned_groups))
            return merge(results, owned_groups)

        scaleout.merge_cluster_results = keep_shards
        self.shards: list = []
        self.plan = ScaleOutPlan(
            profile=STANDARD_PROFILES[0],
            seed=self.seed,
            scale=self.sizes["scale"],
            groups=self.sizes["groups"],
            replay_seed=self.seed,
        )
        self.report = PipelineReport()
        self.traces: list = []
        self.merged: object = None

    def run(self) -> None:
        try:
            with self.span("scaleout.build_group_traces"):
                self.traces = build_group_traces(self.plan, report=self.report)
            with self.span("scaleout.run_partitioned_replay"):
                self.merged = run_partitioned_replay(
                    self.plan,
                    self.traces,
                    shards=self.sizes["shards"],
                    report=self.report,
                )
        except Exception as exc:
            self.merged = exc

    def check(self) -> Outcome:
        if isinstance(self.merged, Exception):
            return Outcome([("scale-out replay", _failure(self.merged))], 0, [])
        columns = [trace.columnar for trace in self.traces]
        records = [len(c) for c in columns]
        opens = [int((c.kind_idx == _OPEN_KIND).sum()) for c in columns]
        ops = []
        if len(self.shards) != self.sizes["shards"]:
            ops.append(("shards", f"merged {len(self.shards)} shard results"))
        for shard, (result, groups) in enumerate(self.shards):
            ops.append(
                (
                    f"shard {shard}",
                    replay_error(
                        result,
                        sum(records[g] for g in groups),
                        sum(opens[g] for g in groups),
                    ),
                )
            )
        merged = self.merged
        ops.append(("merged", replay_error(merged, sum(records), sum(opens))))
        counts = fs_counts([merged])
        counts.update(stage_counts(self.report))
        counts["workload.records"] = sum(records)
        return Outcome(
            ops=ops,
            records_replayed=merged.records_replayed,
            digest_parts=counter_rows(merged),
            counts=counts,
        )


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (PaperTables, ChaosReplay, ScaleOut)
}
