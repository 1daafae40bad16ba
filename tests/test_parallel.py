"""Process-parallel execution and memoised cost oracles (repro.parallel).

Pins the contract the parallel layer lives or dies by: ``workers=1``
and ``workers>1`` are *bitwise-identical* — same Q values, same cost
ledgers, same fleet fingerprints, same fault event logs — because the
pool only moves pure ``forward_batch`` / raycast kernels into workers
while every RNG draw, chaos decision and accounting fold stays in the
coordinator.  Also covers the supporting pieces: worker planning,
spawn-safety guards on the process-local ``PROBE``/``FAULTS`` seams,
cross-worker span aggregation, the O(K) :class:`StepCostAccumulator`,
and the memoisation layer's hit/miss counters.  The sharded-backend
checks run under every shard policy: ``workers > 1`` row-splits the one
array datapath whatever the policy.
"""

import numpy as np
import pytest

from repro.backend import (
    ShardCost,
    ShardedBackend,
    StepCost,
    StepCostAccumulator,
    merge_step_costs,
)
from repro.faults import FAULTS, chaos, parse_fault_spec
from repro.fleet import FleetScheduler, VecNavigationEnv
from repro.nn import build_network, scaled_drone_net_spec
from repro.obs import MetricsRegistry, observed
from repro.parallel import (
    cache,
    clear_memo_caches,
    get_pool,
    memo_disabled,
    memo_stats,
    memoised,
    publish_memo_metrics,
    resolve_workers,
    WorkerError,
)
from repro.parallel.dispatch import (
    _w_activate_faults,
    _w_activate_probe,
    _w_in_worker,
)
from repro.rl import EpsilonSchedule, QLearningAgent, config_by_name

SIDE = 16


def make_net(seed: int = 0):
    return build_network(scaled_drone_net_spec(input_side=SIDE), seed=seed)


def make_agent(backend, seed: int = 0, **kwargs) -> QLearningAgent:
    return QLearningAgent(
        backend.network,
        config=config_by_name("L4"),
        epsilon=EpsilonSchedule(1.0, 0.1, 200),
        seed=seed,
        batch_size=4,
        backend=backend,
        **kwargs,
    )


def make_fleet(num_envs: int = 4, workers=1) -> VecNavigationEnv:
    return VecNavigationEnv.from_names(
        ["indoor-apartment", "outdoor-forest"],
        seeds=list(range(num_envs)),
        image_side=SIDE,
        max_episode_steps=100,
        workers=workers,
    )


@pytest.fixture(autouse=True)
def _seam_off_after():
    yield
    FAULTS.deactivate()


# RoundStats fields that must replay bitwise at any worker count —
# everything except the host wall-clock measurements.
_ROUND_FIELDS = (
    "round_index", "env_steps", "episodes", "train_updates", "mean_loss",
    "eval_sfd_by_class", "backend", "inference_states", "inference_macs",
    "inference_cycles", "shards", "critical_path_cycles",
    "critical_shard_index", "sync_staleness", "training_cycles",
    "training_macs", "training_critical_path_cycles", "faults_injected",
    "faults_detected", "faults_recovered", "fault_recovery_cycles",
    "degraded_states", "active_shards",
)


def fleet_fingerprint(report):
    """Every deterministic field of a FleetReport (wall times excluded)."""
    return {
        "rounds": [
            {f: getattr(r, f) for f in _ROUND_FIELDS} for r in report.rounds
        ],
        "sfd_by_class": report.sfd_by_class,
        "crash_counts": report.crash_counts,
        "fault_events": report.fault_events,
    }


class TestResolveWorkers:
    def test_explicit_counts(self):
        assert resolve_workers(1) == 1
        assert resolve_workers("3") == 3
        assert resolve_workers(8, tasks=4) == 4

    def test_auto_is_at_least_one(self):
        assert resolve_workers("auto") >= 1

    def test_rejects_bad_specs(self):
        with pytest.raises(ValueError):
            resolve_workers(0)
        with pytest.raises(ValueError):
            resolve_workers("many")


class TestMemoisation:
    def test_hit_miss_counters(self):
        calls = []

        @memoised("test_parallel_sq")
        def sq(x):
            calls.append(x)
            return x * x

        sq.memo.clear()
        assert sq(3) == 9 and sq(3) == 9 and sq(4) == 16
        assert calls == [3, 4]
        assert sq.memo.hits == 1 and sq.memo.misses == 2
        assert sq.memo.hit_rate == pytest.approx(1 / 3)

    def test_memo_disabled_recomputes(self):
        calls = []

        @memoised("test_parallel_bypass")
        def f(x):
            calls.append(x)
            return x

        f.memo.clear()
        f(1)
        with memo_disabled():
            f(1)
            f(1)
        assert calls == [1, 1, 1]
        f(1)  # re-enabled: cache hit again
        assert calls == [1, 1, 1]

    def test_oracle_calls_are_memoised(self):
        from repro.systolic.cycles import conv_rowstationary_stats

        clear_memo_caches()
        table = cache("conv_rowstationary_stats")
        a = conv_rowstationary_stats(3, 16, 16, 8, 3, 3)
        b = conv_rowstationary_stats(3, 16, 16, 8, 3, 3)
        assert a == b
        assert table.hits == 1 and table.misses == 1

    def test_network_cost_signature_shares_entries(self):
        from repro.systolic.training import network_training_step_cost

        clear_memo_caches()
        cost_a = network_training_step_cost(make_net(0), (1, SIDE, SIDE), 4)
        # A different weight draw of the same topology must hit: the
        # closed-form cost depends only on shapes, not values.
        cost_b = network_training_step_cost(make_net(1), (1, SIDE, SIDE), 4)
        assert cost_a.total_cycles == cost_b.total_cycles
        table = cache("network_training_step_cost")
        assert table.hits == 1 and table.misses == 1

    def test_publish_memo_metrics_gauges(self):
        clear_memo_caches()
        from repro.systolic.cycles import fc_tile_stats

        fc_tile_stats(64, 32)
        fc_tile_stats(64, 32)
        registry = MetricsRegistry()
        with observed(registry=registry):
            stats = publish_memo_metrics()
        gauges = registry.snapshot()["gauges"]
        key = 'repro_memo_hits{oracle="fc_tile_stats"}'
        assert gauges[key] == 1.0
        assert gauges["repro_memo_hit_rate_overall"] > 0.0
        assert stats["fc_tile_stats"]["hit_rate"] == 0.5
        assert memo_stats()["fc_tile_stats"]["entries"] == 1


def _plain(states, cycles, macs):
    return StepCost(
        backend="systolic", states=states, macs=macs,
        layer_cycles={"conv1": cycles},
    )


def _sharded(states, per_array, merge=7):
    return ShardCost(
        backend="sharded", states=states, macs=states * 10,
        layer_cycles={"conv1": sum(per_array)}, shards=len(per_array),
        shard_cycles=tuple(per_array),
        critical_path_cycles=max(per_array) + merge, merge_cycles=merge,
        critical_shard_index=max(
            range(len(per_array)), key=per_array.__getitem__
        ),
    )


class TestStepCostAccumulator:
    SEQUENCES = {
        "plain_only": [_plain(4, 100, 40), _plain(2, 60, 20)],
        "sharded_only": [_sharded(8, (50, 80, 20)), _sharded(4, (30, 10, 90))],
        # A plain record *before* the first ShardCost must still charge
        # array 0 of the merged sharded total.
        "plain_then_sharded": [_plain(4, 100, 40), _sharded(8, (50, 80, 20))],
        "sharded_then_plain": [_sharded(8, (50, 80, 20)), _plain(4, 100, 40)],
        "empty": [],
    }

    @pytest.mark.parametrize("name", sorted(SEQUENCES))
    def test_matches_merge_step_costs(self, name):
        costs = self.SEQUENCES[name]
        acc = StepCostAccumulator()
        for c in costs:
            acc.add(c)
        assert acc.merge() == merge_step_costs(list(costs))

    def test_total_cycles_peek_and_drain(self):
        acc = StepCostAccumulator("sharded")
        acc.add(_sharded(8, (50, 80, 20)))
        acc.add(_plain(4, 100, 40))
        assert acc.total_cycles == merge_step_costs(
            [_sharded(8, (50, 80, 20)), _plain(4, 100, 40)]
        ).total_cycles
        merged = acc.drain()
        assert isinstance(merged, ShardCost)
        assert len(acc) == 0
        assert acc.drain() == merge_step_costs([], backend="sharded")


class TestSpawnSafety:
    def test_worker_marks_itself(self):
        assert get_pool(1).run(_w_in_worker) is True

    def test_probe_activation_fails_loudly_in_worker(self):
        with pytest.raises(WorkerError, match="process-local"):
            get_pool(1).run(_w_activate_probe)

    def test_faults_activation_fails_loudly_in_worker(self):
        with pytest.raises(WorkerError, match="process-local"):
            get_pool(1).run(_w_activate_faults)

    def test_worker_error_does_not_kill_pool(self):
        pool = get_pool(1)
        with pytest.raises(WorkerError):
            pool.run(_w_activate_probe)
        assert pool.run(_w_in_worker) is True


POLICIES = ("sample", "layer", "pipeline")


class TestParallelForwardIdentity:
    def test_sharded_forward_bitwise_identical(self):
        rng = np.random.default_rng(0)
        batch = rng.standard_normal((32, 1, SIDE, SIDE))
        for policy in POLICIES:
            serial = ShardedBackend(make_net(), shards=4, shard=policy, workers=1)
            parallel = ShardedBackend(make_net(), shards=4, shard=policy, workers=2)
            q_s, cost_s = serial.forward_batch(batch)
            q_p, cost_p = parallel.forward_batch(batch)
            assert np.array_equal(q_s, q_p), policy
            assert cost_s == cost_p, policy

    def test_identity_survives_weight_sync(self):
        rng = np.random.default_rng(1)
        batch = rng.standard_normal((16, 1, SIDE, SIDE))
        for policy in POLICIES:
            serial = ShardedBackend(make_net(), shards=4, shard=policy, workers=1)
            parallel = ShardedBackend(make_net(), shards=4, shard=policy, workers=2)
            for backend in (serial, parallel):
                backend.forward_batch(batch)  # ship the pre-update snapshot
                backend.network.parameters()[0].value += 0.01
                backend.sync()
            q_s, _ = serial.forward_batch(batch)
            q_p, _ = parallel.forward_batch(batch)
            assert np.array_equal(q_s, q_p), policy

    def test_vec_env_observations_bitwise_identical(self):
        serial = make_fleet(num_envs=4, workers=1)
        parallel = make_fleet(num_envs=4, workers=2)
        obs_s = [serial.reset()]
        obs_p = [parallel.reset()]
        for _ in range(5):
            actions = np.zeros(4, dtype=int)
            obs_s.append(serial.step(actions)[0])
            obs_p.append(parallel.step(actions)[0])
        assert np.array_equal(np.stack(obs_s), np.stack(obs_p))


class TestParallelFleetIdentity:
    def _run(self, workers, policy, plan=None):
        agent = make_agent(
            ShardedBackend(make_net(), shards=4, shard=policy, workers=workers),
            sync_every=4,
        )
        scheduler = FleetScheduler(
            agent, make_fleet(4, workers=workers), train_every=2, eval_steps=5
        )
        if plan is None:
            return scheduler.run(rounds=2, steps_per_round=10)
        with chaos(plan):
            return scheduler.run(rounds=2, steps_per_round=10)

    def test_fleet_fingerprint_identical(self):
        for policy in POLICIES:
            assert fleet_fingerprint(self._run(1, policy)) == fleet_fingerprint(
                self._run(2, policy)
            ), policy

    def test_fleet_fingerprint_identical_under_chaos(self):
        spec = "seed=7,crash=1@15,transient=0.1,straggler=0.1,sensor=0.02"
        for policy in POLICIES:
            serial = self._run(1, policy, parse_fault_spec(spec))
            parallel = self._run(2, policy, parse_fault_spec(spec))
            assert serial.fault_events == parallel.fault_events, policy
            assert fleet_fingerprint(serial) == fleet_fingerprint(parallel), policy


class TestSpanAggregation:
    def _spans(self, workers, policy):
        rng = np.random.default_rng(2)
        batch = rng.standard_normal((32, 1, SIDE, SIDE))
        backend = ShardedBackend(
            make_net(), shards=4, shard=policy, workers=workers
        )
        backend.forward_batch(batch)  # ship weights before tracing
        with observed(registry=MetricsRegistry()) as (tracer, _):
            _, cost = backend.forward_batch(batch)
        spans = [s for s in tracer.spans if s.name == "shard.forward"]
        return spans, cost

    def test_worker_spans_aggregate_in_coordinator(self):
        """One ``shard.forward`` span per host executor pass: a single
        inline pass serially, one per pooled row slice in parallel.
        Either way the spans cover every state once and their cycles
        sum to the priced critical path."""
        for policy in POLICIES:
            serial, cost_s = self._spans(1, policy)
            parallel, cost_p = self._spans(2, policy)
            assert len(serial) == 1 and len(parallel) == 2, policy
            for spans, cost in ((serial, cost_s), (parallel, cost_p)):
                assert sum(s.args["states"] for s in spans) == 32
                assert sum(s.cycles for s in spans) == cost.critical_path_cycles
            # Parallel spans carry the worker lane; serial ones do not.
            assert [s.args.get("worker") for s in parallel] == [0, 1]
            assert serial[0].args.get("worker") is None
            assert all(s.thread_id < 0 for s in parallel)
