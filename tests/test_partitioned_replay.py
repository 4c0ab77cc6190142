"""Partitioned (scale-out) replay must be byte-identical to the
unpartitioned replay of the same grouped population -- the property
that makes sharding replays across workers trustworthy.  Identity here
means SHA-256 digests of exact counter values: every client, every
per-server row, the aggregate, and every snapshot.

Shards are *owned-only*: each shard cluster constructs just its groups'
machines, and the roster stubs refuse foreign traffic loudly.  The
suite pins that identity holds under per-group faults, replication, and
scrubbing too (``TestGroupedFaults``), plus the plan arithmetic, the
per-group config validation, and the merge error paths.
"""

import pytest

from repro.common.errors import ConfigError, SimulationError
from repro.fs.cluster import Cluster, merge_cluster_results
from repro.fs.config import ClusterConfig
from repro.fs.faults import FaultConfig
from repro.fs.oracle import ProtocolOracle
from repro.fs.sharding import MachineRoster, Placement
from repro.obs.observer import Observation, ObsConfig
from repro.obs.sampler import CounterTimeseries, MachineSeries
from repro.pipeline.scaleout import (
    GROUP_SEED_STRIDE,
    ScaleOutPlan,
    build_group_traces,
    check_id_space,
    merge_obs_timeseries,
    merge_oracle_versions,
    run_partitioned_replay,
    run_unpartitioned_replay,
    shard_partition,
)
from repro.trace.columnar import ColumnarTrace, ColumnarTraceBuilder
from repro.trace.records import OpenRecord, AccessMode
from repro.workload.profiles import STANDARD_PROFILES

SCALE = 0.15  # 6 clients -- an unequal (2, 2, 1, 1) split over 4 groups
GROUPS = 4

#: Per-group fault/replication knobs for the grouped-faults identity
#: suite (and the CI determinism leg, which selects on "grouped_faults").
FAULTY = FaultConfig(
    server_crash_rate=0.5,
    server_downtime=40.0,
    client_crash_rate=0.2,
    partition_rate=0.2,
    partition_duration=20.0,
    disk_corruption_rate=0.4,
    disk_torn_write_rate=0.2,
    disk_lost_write_rate=0.2,
)


def make_plan(seed: int) -> ScaleOutPlan:
    return ScaleOutPlan(
        profile=STANDARD_PROFILES[0], seed=seed, scale=SCALE, groups=GROUPS
    )


def make_faulty_plan(seed: int) -> ScaleOutPlan:
    return ScaleOutPlan(
        profile=STANDARD_PROFILES[0],
        seed=seed,
        scale=SCALE,
        groups=2,
        servers_per_group=2,
        replication_factor=2,
        scrub_interval=3600.0,
        faults=FAULTY,
    )


@pytest.fixture(scope="module")
def plan():
    return make_plan(1991)


@pytest.fixture(scope="module")
def traces(plan):
    return build_group_traces(plan)


@pytest.fixture(scope="module")
def reference(plan, traces):
    return run_unpartitioned_replay(plan, traces)


@pytest.fixture(scope="module")
def faulty_plan():
    return make_faulty_plan(1991)


@pytest.fixture(scope="module")
def faulty_traces(faulty_plan):
    return build_group_traces(faulty_plan)


@pytest.fixture(scope="module")
def faulty_reference(faulty_plan, faulty_traces):
    return run_unpartitioned_replay(faulty_plan, faulty_traces)


def assert_identical(part, ref):
    assert part.records_replayed == ref.records_replayed
    assert part.duration == ref.duration
    assert sorted(part.final_counters) == sorted(ref.final_counters)
    for client_id, counters in ref.final_counters.items():
        assert part.final_counters[client_id].digest() == counters.digest()
    assert len(part.per_server_counters) == len(ref.per_server_counters)
    for mine, theirs in zip(part.per_server_counters, ref.per_server_counters):
        assert mine.digest() == theirs.digest()
    assert part.server_counters.digest() == ref.server_counters.digest()
    for client_id, snaps in ref.snapshots.items():
        mine = part.snapshots[client_id]
        assert [s.time for s in mine] == [s.time for s in snaps]
        assert [s.counters.digest() for s in mine] == [
            s.counters.digest() for s in snaps
        ]


class TestIdentity:
    @pytest.mark.parametrize("shards", [2, 3, 4])
    def test_sharded_replay_matches_unpartitioned(
        self, plan, traces, reference, shards
    ):
        part = run_partitioned_replay(plan, traces, shards=shards)
        assert_identical(part, reference)

    @pytest.mark.slow
    @pytest.mark.parametrize("seed", [2718, 31415])
    def test_identity_across_seeds(self, seed):
        other = make_plan(seed)
        other_traces = build_group_traces(other)
        ref = run_unpartitioned_replay(other, other_traces)
        part = run_partitioned_replay(other, other_traces, shards=4)
        assert_identical(part, ref)

    def test_pool_matches_serial(self, plan, traces, reference):
        part = run_partitioned_replay(plan, traces, shards=2, workers=2)
        assert_identical(part, reference)


class TestGroupedFaults:
    """Identity under per-group faults, replication, and scrubbing --
    the tentpole.  The CI scale-smoke leg runs this class by name."""

    def test_grouped_faults_two_shards_match_unpartitioned(
        self, faulty_plan, faulty_traces, faulty_reference
    ):
        part = run_partitioned_replay(faulty_plan, faulty_traces, shards=2)
        assert_identical(part, faulty_reference)

    def test_grouped_faults_single_shard_matches(
        self, faulty_plan, faulty_traces, faulty_reference
    ):
        part = run_partitioned_replay(faulty_plan, faulty_traces, shards=1)
        assert_identical(part, faulty_reference)

    def test_grouped_faults_oracle_clean(self, faulty_plan, faulty_traces):
        oracle = ProtocolOracle(seed=faulty_plan.replay_seed)
        run_unpartitioned_replay(faulty_plan, faulty_traces, oracle=oracle)
        assert not oracle.violations


class TestOwnedOnlyCluster:
    """Owned-only construction: only the owned groups' machines exist,
    and the roster stubs refuse foreign traffic loudly."""

    CONFIG = ClusterConfig(client_count=4, num_servers=2, client_groups=2)

    def test_owned_rosters_and_foreign_refusal(self):
        cluster = Cluster(self.CONFIG, owned_groups=[0])
        # Global arithmetic is intact: len() is the cluster-wide count.
        assert len(cluster.clients) == 4
        assert len(cluster.servers) == 2
        assert cluster.clients.owned_ids == [0, 1]
        assert cluster.servers.owned_ids == [0]
        assert [c.client_id for c in cluster.clients] == [0, 1]
        with pytest.raises(SimulationError, match="client 2 is not owned"):
            cluster.clients[2]
        with pytest.raises(SimulationError, match="server 1 is not owned"):
            cluster.servers[1]

    def test_owned_groups_validated(self):
        with pytest.raises(ConfigError, match="owned_groups"):
            Cluster(self.CONFIG, owned_groups=[])
        with pytest.raises(ConfigError, match="owned_groups"):
            Cluster(self.CONFIG, owned_groups=[2])
        with pytest.raises(ConfigError, match="owned_groups"):
            Cluster(self.CONFIG, owned_groups=[-1])

    def test_result_carries_owned_ids_and_overheads(self):
        cluster = Cluster(self.CONFIG, owned_groups=[1])
        result = cluster.replay(iter(()), duration=600.0)
        assert result.server_ids == (1,)
        assert sorted(result.final_counters) == [2, 3]
        assert result.construction_seconds > 0.0
        assert result.tick_events > 0

    def test_full_cluster_result_names_all_servers(self):
        cluster = Cluster(self.CONFIG)
        result = cluster.replay(iter(()), duration=600.0)
        assert result.server_ids == (0, 1)


class TestMachineRoster:
    def test_roster_basics(self):
        roster = MachineRoster("server", 4, ["b", "c"], [1, 2])
        assert len(roster) == 4
        assert list(roster) == ["b", "c"]
        assert roster[1] == "b" and roster[2] == "c"
        assert roster.owned_ids == [1, 2]
        with pytest.raises(SimulationError, match="server 0 is not owned"):
            roster[0]
        like = roster.like(["B", "C"], kind="transport")
        assert like[2] == "C"
        assert len(like) == 4
        with pytest.raises(SimulationError, match="transport 3 is not owned"):
            like[3]

    def test_roster_rejects_mismatched_ids(self):
        with pytest.raises(ConfigError):
            MachineRoster("client", 4, ["a", "b"], [1, 1])


class TestOracleAndObs:
    def test_oracle_and_obs_merge_match(self, plan, traces):
        owned = shard_partition(plan.groups, 2)
        config = plan.cluster_config()
        duration = traces[0].duration

        ref_oracle = ProtocolOracle(seed=plan.replay_seed)
        ref_obs = Observation(ObsConfig(sample_interval=600.0))
        ref = run_unpartitioned_replay(
            plan, traces, oracle=ref_oracle, obs=ref_obs
        )

        results, oracles, observations = [], [], []
        for groups in owned:
            oracle = ProtocolOracle(seed=plan.replay_seed)
            obs = Observation(ObsConfig(sample_interval=600.0))
            merged = ColumnarTrace.merge(
                [traces[g].columnar for g in groups], ranks=groups
            )
            cluster = Cluster(
                config, seed=plan.replay_seed, oracle=oracle, obs=obs,
                owned_groups=groups,
            )
            results.append(cluster.replay(merged.iter_records(), duration))
            oracles.append(oracle)
            observations.append(obs)

        assert_identical(merge_cluster_results(results, owned), ref)

        assert not ref_oracle.violations
        assert not any(oracle.violations for oracle in oracles)
        assert merge_oracle_versions(oracles, owned, plan.groups) == (
            ref_oracle.version_map()
        )

        merged_ts = merge_obs_timeseries(
            [obs.timeseries for obs in observations], owned, plan
        )
        assert sorted(merged_ts.machines) == sorted(
            ref_obs.timeseries.machines
        )
        for name, series in ref_obs.timeseries.machines.items():
            assert merged_ts.machines[name].times == series.times
            assert merged_ts.machines[name].rows == series.rows


class _StubOracle:
    """Just enough oracle surface for the merge helpers."""

    def __init__(self, versions, seed=7):
        self._versions = dict(versions)
        self.seed = seed

    def version_map(self):
        return dict(self._versions)


def _series(name):
    return MachineSeries(machine=name, fields=("x",), times=[0.0], rows=[(0,)])


def _timeseries(names):
    ts = CounterTimeseries(600.0)
    for name in names:
        ts.machines[name] = _series(name)
    return ts


class TestMergeHelpers:
    def test_oracle_merge_is_residue_disjoint(self):
        # Group 0 owns even ids, group 1 odd; foreign ids are ignored.
        a = _StubOracle({0: 3, 2: 1, 5: 9})
        b = _StubOracle({1: 4, 5: 9})
        merged = merge_oracle_versions([a, b], [[0], [1]], 2)
        assert merged == {0: 3, 2: 1, 1: 4, 5: 9}

    def test_oracle_merge_keeps_agreeing_sentinels(self):
        a = _StubOracle({-5: 2, 0: 1})
        b = _StubOracle({-5: 2, 1: 1})
        merged = merge_oracle_versions([a, b], [[0], [1]], 2)
        assert merged[-5] == 2

    def test_oracle_merge_rejects_sentinel_disagreement(self):
        a = _StubOracle({-5: 2}, seed=1234)
        b = _StubOracle({-5: 3}, seed=1234)
        with pytest.raises(SimulationError) as excinfo:
            merge_oracle_versions([a, b], [[0], [1]], 2)
        message = str(excinfo.value)
        assert "disagree" in message
        assert "seed 1234" in message

    def test_obs_merge_takes_each_machine_from_its_owner(self, plan):
        owned = [[0, 1], [2, 3]]
        offsets = plan.group_client_offsets  # (0, 2, 4, 5, 6)
        shard0 = _timeseries(
            [f"client-{i}" for i in range(offsets[2])]
            + ["server-0", "server-1"]
        )
        shard1 = _timeseries(
            [f"client-{i}" for i in range(offsets[2], offsets[4])]
            + ["server-2", "server-3"]
        )
        merged = merge_obs_timeseries([shard0, shard1], owned, plan)
        assert sorted(merged.machines) == sorted(
            set(shard0.machines) | set(shard1.machines)
        )

    def test_obs_merge_unowned_machine_is_contextual_error(self, plan):
        # A shard sampled a group-3 client, but no shard owns group 3.
        stray = f"client-{plan.group_client_offsets[3]}"
        shard = _timeseries(["client-0", "client-1", "server-0", stray])
        with pytest.raises(SimulationError, match="belongs to group 3"):
            merge_obs_timeseries([shard], [[0]], plan)


class TestPlanAndPartition:
    def test_plan_arithmetic(self, plan):
        assert plan.group_scale == SCALE / GROUPS
        assert plan.client_count == max(4, round(40 * SCALE))
        assert plan.group_client_counts == (2, 2, 1, 1)
        assert plan.group_client_offsets == (0, 2, 4, 5, 6)
        assert plan.num_servers == GROUPS
        assert plan.group_seed(3) == plan.seed + 3 * GROUP_SEED_STRIDE
        config = plan.cluster_config()
        assert config.client_groups == GROUPS
        assert config.client_count == plan.client_count
        assert config.group_sizes == plan.group_client_counts

    @pytest.mark.parametrize(
        "scale", [0.05, 0.1, 0.15, 0.5, 1.0, 2.5, 10.0, 100.0]
    )
    def test_plan_population_matches_registry_scaling(self, scale):
        """The satellite-2 pin: a plan's total population is exactly the
        registry's ``max(4, round(40 * scale))`` at the *total* scale --
        not a per-group rounding that drifts from it."""
        plan = ScaleOutPlan(
            profile=STANDARD_PROFILES[0], scale=scale,
            groups=min(4, max(1, round(scale / 0.05))),
        )
        expected = max(4, round(40 * scale))
        assert plan.client_count == expected
        counts = plan.group_client_counts
        assert sum(counts) == expected
        assert max(counts) - min(counts) <= 1
        assert plan.group_client_offsets[-1] == expected
        assert plan.cluster_config().client_count == expected

    def test_plan_validation(self):
        with pytest.raises(ConfigError):
            ScaleOutPlan(profile=STANDARD_PROFILES[0], groups=0)
        with pytest.raises(ConfigError):
            ScaleOutPlan(profile=STANDARD_PROFILES[0], scale=0.0)
        with pytest.raises(ConfigError):
            ScaleOutPlan(profile=STANDARD_PROFILES[0], servers_per_group=0)
        # 8 groups need 8 clients; scale 0.05 fields only 4.
        with pytest.raises(ConfigError, match="every group needs"):
            ScaleOutPlan(profile=STANDARD_PROFILES[0], scale=0.05, groups=8)

    def test_shard_partition_covers_contiguously(self):
        assert shard_partition(8, 3) == [[0, 1, 2], [3, 4, 5], [6, 7]]
        assert shard_partition(4, 3) == [[0, 1], [2], [3]]
        assert shard_partition(4, 4) == [[0], [1], [2], [3]]
        assert shard_partition(1, 1) == [[0]]
        assert shard_partition(5, 2) == [[0, 1, 2], [3, 4]]

    def test_shard_partition_rejects_bad_counts(self):
        with pytest.raises(ConfigError):
            shard_partition(4, 5)
        with pytest.raises(ConfigError):
            shard_partition(4, 0)
        with pytest.raises(ConfigError):
            shard_partition(4, -1)

    def test_id_space_guard(self):
        from repro.fs.paging import EXECUTABLE_FILE_ID_BASE

        builder = ColumnarTraceBuilder()
        builder.append(
            OpenRecord,
            (
                0.0, 0, 1, EXECUTABLE_FILE_ID_BASE // 2, 1, 0, 0,
                AccessMode.READ, 0, False,
            ),
        )
        remapped = builder.seal().remap_group(1, 4, 0)
        with pytest.raises(ConfigError, match="executable id space"):
            check_id_space(remapped, 1)


class TestGroupedConfig:
    """Satellite 3: every grouped-config validation message."""

    def test_client_groups_must_be_positive(self):
        with pytest.raises(ConfigError, match="client_groups must be >= 1"):
            ClusterConfig(client_count=8, num_servers=4, client_groups=0)

    def test_group_sizes_require_grouping(self):
        with pytest.raises(
            ConfigError, match="requires client_groups > 1"
        ):
            ClusterConfig(client_count=8, client_group_sizes=(4, 4))

    def test_group_sizes_length_must_match(self):
        with pytest.raises(ConfigError, match="3 entries for client_groups=2"):
            ClusterConfig(
                client_count=8, num_servers=4, client_groups=2,
                client_group_sizes=(3, 3, 2),
            )

    def test_group_sizes_must_be_positive(self):
        with pytest.raises(ConfigError, match="at least one client"):
            ClusterConfig(
                client_count=8, num_servers=4, client_groups=2,
                client_group_sizes=(8, 0),
            )

    def test_group_sizes_must_sum_to_population(self):
        with pytest.raises(ConfigError, match="sum to 7, not client_count=8"):
            ClusterConfig(
                client_count=8, num_servers=4, client_groups=2,
                client_group_sizes=(4, 3),
            )

    def test_equal_split_must_divide_population(self):
        with pytest.raises(
            ConfigError, match="evenly divide client_count=10"
        ):
            ClusterConfig(client_count=10, num_servers=4, client_groups=4)

    def test_groups_must_divide_servers(self):
        with pytest.raises(ConfigError, match="evenly divide num_servers=3"):
            ClusterConfig(client_count=8, num_servers=3, client_groups=4)

    def test_replication_must_fit_group_slice(self):
        with pytest.raises(
            ConfigError, match="does not fit a group's server slice"
        ):
            ClusterConfig(
                client_count=8, num_servers=4, client_groups=4,
                replication_factor=2,
            )

    def test_grouped_faults_replication_scrub_now_compose(self):
        """The old blanket client_groups > 1 prohibitions are gone:
        per-group replication, scrubbing, and fault timelines are
        legal so long as the replica chain fits the slice."""
        config = ClusterConfig(
            client_count=8, num_servers=8, client_groups=4,
            replication_factor=2, scrub_interval=60.0,
            faults=FaultConfig(server_crash_rate=1.0),
        )
        assert config.group_sizes == (2, 2, 2, 2)
        assert config.group_client_offsets == (0, 2, 4, 6, 8)

    def test_unequal_split_offsets(self):
        config = ClusterConfig(
            client_count=6, num_servers=4, client_groups=4,
            client_group_sizes=(2, 2, 1, 1),
        )
        assert config.group_sizes == (2, 2, 1, 1)
        assert config.group_client_offsets == (0, 2, 4, 5, 6)


class TestGroupPlacement:
    def test_group_placement_confines_to_slice(self):
        base = Placement(8, seed=3)
        for group in range(4):
            view = base.group_view(group, 4)
            lo, hi = group * 2, group * 2 + 2
            for file_id in range(200):
                assert lo <= view.shard_of(file_id) < hi
            assert view.shard_of(-1) == lo
        with pytest.raises(ConfigError):
            base.group_view(0, 3)  # 3 does not divide 8
        with pytest.raises(ConfigError):
            base.group_view(4, 4)

    def test_group_replicas_confined_to_slice(self):
        base = Placement(8, seed=3)
        for group in range(4):
            view = base.group_view(group, 4)
            assert view.chain_width == 2
            lo, hi = group * 2, group * 2 + 2
            for file_id in range(50):
                chain = view.replicas_of(file_id, 2)
                assert chain[0] == view.shard_of(file_id)
                assert len(set(chain)) == 2
                assert all(lo <= server < hi for server in chain)
            assert view.replicas_of(-1, 2) == (lo, lo + 1)
        with pytest.raises(ConfigError, match="server slice"):
            base.group_view(0, 4).replicas_of(1, 3)  # slice holds only 2

    @pytest.mark.parametrize("num_servers", [1, 2, 4, 8])
    def test_one_group_view_is_the_global_map(self, num_servers):
        """One group's view is the cluster-wide map: the classic cluster
        is the one-group case of the grouped cluster."""
        base = Placement(num_servers, seed=3)
        view = base.group_view(0, 1)
        assert view.chain_width == base.chain_width == num_servers
        assert view.server_ids == base.server_ids == range(num_servers)
        for file_id in list(range(-3, 2000)) + [2**40 + 7, 2**63 - 1]:
            assert view.shard_of(file_id) == base.shard_of(file_id)
            for r in range(1, num_servers + 1):
                assert view.replicas_of(file_id, r) == base.replicas_of(
                    file_id, r
                )


class TestMergeValidation:
    def test_merge_rejects_bad_coverage(self, plan, traces, reference):
        part = run_partitioned_replay(plan, traces, shards=2)
        owned = shard_partition(plan.groups, 2)
        results = [part, part]
        with pytest.raises(ConfigError):
            merge_cluster_results(results, [owned[0], owned[0]])
        with pytest.raises(ConfigError):
            merge_cluster_results([part], [owned[0]])
        with pytest.raises(ConfigError):
            merge_cluster_results([], [])
