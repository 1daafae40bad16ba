"""Sharded multi-array backend and the double-buffered weight bus.

Contracts under test:

* ``ShardedBackend`` is **bitwise-equal** in Q values to the
  single-array ``SystolicBackend`` for every shard policy, over
  K in {1, 2, 4} and uneven batch sizes — splitting a batch or slicing
  an output dimension must not change one bit of the fixed-point
  datapath's results;
* each policy's priced plan equals the executing forward it replaced
  (kept below as test-only references), field by field, faults
  included, and ``train_cost`` reproduces its recorded values;
* ``ShardCost`` separates work (summed layer cycles) from wall-clock
  (critical path = slowest array + merge traffic), and merged records
  accumulate critical paths serially;
* sample sharding at K=4 serves the fleet observation batch in
  <= 0.3x the single-array cycle budget (the multi-array payoff);
* the ``WeightBus`` flips the serving snapshot every ``sync_every``
  published updates, tracks the staleness served, and at
  ``sync_every <= 4`` the stale fixed-point policy still agrees with
  the float policy on >= 0.95 of seeded rollout states.
"""

from pathlib import Path

import numpy as np
import pytest

from repro.backend import (
    BACKENDS,
    ShardCost,
    ShardedBackend,
    StepCost,
    SystolicBackend,
    WeightBus,
    make_backend,
    merge_step_costs,
)
from repro.fleet import FleetScheduler, VecNavigationEnv
from repro.nn import build_network, scaled_drone_net_spec
from repro.nn.layers import Conv2D, Dense, Flatten, ReLU
from repro.nn.network import Network
from repro.rl import EpsilonSchedule, QLearningAgent, config_by_name

SIDE = 16


def make_net(seed: int = 0) -> Network:
    return build_network(scaled_drone_net_spec(input_side=SIDE), seed=seed)


@pytest.fixture(scope="module")
def stale_rollout():
    """A fleet trained through a sharded backend at sync_every=4.

    Returns (agent, replay states) after a multi-round run in which the
    datapath served snapshots up to 3 updates stale.
    """
    vec_env = VecNavigationEnv.from_names(
        ["indoor-apartment", "outdoor-forest"],
        seeds=[0, 1, 2, 3],
        image_side=SIDE,
        max_episode_steps=100,
    )
    network = make_net()
    agent = QLearningAgent(
        network,
        config=config_by_name("L4"),
        epsilon=EpsilonSchedule(1.0, 0.1, 200),
        seed=0,
        batch_size=4,
        backend=ShardedBackend(network, shards=4, shard="sample"),
        sync_every=4,
    )
    scheduler = FleetScheduler(agent, vec_env, train_every=2, eval_steps=10)
    report = scheduler.run(rounds=2, steps_per_round=40)
    states, _, _, _, _ = agent.replay.sample(128, np.random.default_rng(7))
    return agent, states, report


class TestRegistryAndValidation:
    def test_registered(self):
        assert "sharded" in BACKENDS
        backend = make_backend("sharded", make_net(), shards=2, shard="layer")
        assert isinstance(backend, ShardedBackend)
        assert backend.shards == 2 and backend.shard == "layer"

    def test_bad_arguments_rejected(self):
        with pytest.raises(ValueError, match="shards"):
            ShardedBackend(make_net(), shards=0)
        with pytest.raises(ValueError, match="shard policy"):
            ShardedBackend(make_net(), shards=2, shard="column")
        with pytest.raises(ValueError, match="topology"):
            ShardedBackend(make_net(), shards=2, noc="torus")
        with pytest.raises(ValueError, match="pipeline_chunk"):
            ShardedBackend(make_net(), shards=2, shard="pipeline", pipeline_chunk=0)

    def test_pipeline_policy_accepted(self):
        backend = ShardedBackend(make_net(), shards=2, shard="pipeline")
        assert backend.shard == "pipeline"
        assert backend.noc == "flat"

    def test_state_batch_shape_validated(self):
        with pytest.raises(ValueError, match="state batch"):
            ShardedBackend(make_net()).forward_batch(np.zeros((SIDE, SIDE)))


class TestBitwiseEquivalence:
    @pytest.mark.parametrize("policy", ["sample", "layer", "pipeline"])
    @pytest.mark.parametrize("shards", [1, 2, 4])
    @pytest.mark.parametrize("batch", [1, 5, 8])
    def test_matches_single_array(self, policy, shards, batch):
        net = make_net()
        rng = np.random.default_rng(batch * 17 + shards)
        states = rng.uniform(0, 1, size=(batch, 1, SIDE, SIDE))
        ref_q, _ = SystolicBackend(net).forward_batch(states)
        q, cost = ShardedBackend(net, shards=shards, shard=policy).forward_batch(
            states
        )
        assert np.array_equal(q, ref_q)
        assert cost.shards == shards
        assert len(cost.shard_cycles) == shards

    def test_uneven_batch_across_arrays(self, rng):
        """7 states over 4 arrays: chunk sizes 2/2/2/1, still bitwise."""
        net = make_net()
        states = rng.uniform(0, 1, size=(7, 1, SIDE, SIDE))
        ref_q, _ = SystolicBackend(net).forward_batch(states)
        q, cost = ShardedBackend(net, shards=4, shard="sample").forward_batch(
            states
        )
        assert np.array_equal(q, ref_q)
        # The short chunk burns fewer cycles than the long ones.
        assert cost.shard_cycles[3] < cost.shard_cycles[0]

    def test_batch_narrower_than_arrays(self, rng):
        """2 states over 4 arrays: two arrays sit idle, still bitwise."""
        net = make_net()
        states = rng.uniform(0, 1, size=(2, 1, SIDE, SIDE))
        ref_q, _ = SystolicBackend(net).forward_batch(states)
        q, cost = ShardedBackend(net, shards=4, shard="sample").forward_batch(
            states
        )
        assert np.array_equal(q, ref_q)
        assert cost.shard_cycles[2] == 0 and cost.shard_cycles[3] == 0

    def test_layer_narrower_than_arrays(self, rng):
        """K=8 > FC5's 5 outputs: some arrays idle on that layer."""
        net = make_net()
        states = rng.uniform(0, 1, size=(3, 1, SIDE, SIDE))
        ref_q, _ = SystolicBackend(net).forward_batch(states)
        q, _ = ShardedBackend(net, shards=8, shard="layer").forward_batch(states)
        assert np.array_equal(q, ref_q)

    def test_pe_fidelity_passthrough(self):
        """The oracle passthrough shards to the same bits and budgets."""
        rng = np.random.default_rng(5)
        conv = Conv2D(1, 4, 3, stride=1, name="c", rng=rng)
        _, oh, ow = conv.output_shape(8, 8)
        net = Network(
            [conv, ReLU(), Flatten(), Dense(4 * oh * ow, 6, name="d", rng=rng)],
            name="tiny",
        )
        states = rng.uniform(0, 1, size=(4, 1, 8, 8))
        fast_q, fast_cost = ShardedBackend(
            net, shards=2, shard="layer", fidelity="fast"
        ).forward_batch(states)
        pe_q, pe_cost = ShardedBackend(
            net, shards=2, shard="layer", fidelity="pe"
        ).forward_batch(states)
        assert np.array_equal(fast_q, pe_q)
        assert fast_cost.layer_cycles == pe_cost.layer_cycles

    def test_sync_broadcasts_updates_to_all_arrays(self, rng):
        states = rng.uniform(0, 1, size=(4, 1, SIDE, SIDE))
        for policy in ("sample", "layer", "pipeline"):
            net = make_net()
            backend = ShardedBackend(net, shards=3, shard=policy)
            stale_q = backend.forward_batch(states)[0]
            for p in net.parameters():
                p.value = p.value + 0.01
            # Without sync every array still serves the old download.
            assert np.array_equal(backend.forward_batch(states)[0], stale_q)
            backend.sync()
            fresh_q = backend.forward_batch(states)[0]
            assert np.array_equal(
                fresh_q, SystolicBackend(net).forward_batch(states)[0]
            )
            assert not np.array_equal(fresh_q, stale_q)


class TestShardCost:
    def test_sample_critical_path_is_slowest_array_plus_merge(self, rng):
        net = make_net()
        states = rng.uniform(0, 1, size=(8, 1, SIDE, SIDE))
        _, cost = ShardedBackend(net, shards=4, shard="sample").forward_batch(
            states
        )
        assert cost.critical_path_cycles == max(cost.shard_cycles) + cost.merge_cycles
        # Work is the per-array total; layer_cycles sum to it.
        assert cost.total_cycles == sum(cost.shard_cycles)
        assert cost.total_cycles == sum(cost.layer_cycles.values())
        # Q-value gather: 3 non-root arrays x 2 states x 5 actions.
        assert cost.merge_cycles == 3 * 2 * 5
        assert 1.0 < cost.parallel_speedup <= 4.0
        assert 0.0 < cost.scaling_efficiency <= 1.0
        assert cost.critical_path_seconds() == pytest.approx(
            cost.critical_path_cycles / 1e9
        )

    def test_layer_policy_charges_merge_and_broadcast(self, rng):
        net = make_net()
        states = rng.uniform(0, 1, size=(2, 1, SIDE, SIDE))
        _, cost = ShardedBackend(net, shards=2, shard="layer").forward_batch(
            states
        )
        assert cost.merge_cycles > 0
        assert cost.critical_path_cycles > cost.merge_cycles
        assert cost.critical_path_cycles < cost.total_cycles
        assert cost.total_cycles == sum(cost.shard_cycles)

    def test_single_shard_is_the_single_array_cost(self, rng):
        net = make_net()
        states = rng.uniform(0, 1, size=(4, 1, SIDE, SIDE))
        _, single = SystolicBackend(net).forward_batch(states)
        _, cost = ShardedBackend(net, shards=1, shard="sample").forward_batch(
            states
        )
        assert cost.total_cycles == single.total_cycles
        assert cost.critical_path_cycles == single.total_cycles
        assert cost.merge_cycles == 0

    def test_k4_serves_fleet_batch_under_a_third_of_single_array(self, rng):
        """The acceptance bound: K=4 sample sharding's critical path is
        <= 0.3x the single-array cycles on the fleet observation batch."""
        net = make_net()
        states = rng.uniform(0, 1, size=(64, 1, SIDE, SIDE))
        _, single = SystolicBackend(net).forward_batch(states)
        _, cost = ShardedBackend(net, shards=4, shard="sample").forward_batch(
            states
        )
        assert cost.critical_path_cycles <= 0.3 * single.total_cycles

    def test_critical_shard_index_is_argmax_of_shard_cycles(self, rng):
        net = make_net()
        states = rng.uniform(0, 1, size=(8, 1, SIDE, SIDE))
        for policy in ("sample", "layer", "pipeline"):
            _, cost = ShardedBackend(
                net, shards=4, shard=policy
            ).forward_batch(states)
            slowest = max(
                range(len(cost.shard_cycles)),
                key=cost.shard_cycles.__getitem__,
            )
            assert cost.critical_shard_index == slowest, policy

    def test_critical_shard_index_ties_go_to_lowest(self):
        cost = ShardCost(
            backend="sharded", states=4, layer_cycles={"FC1": 60},
            shards=3, shard_cycles=(20, 25, 25),
            critical_path_cycles=30, merge_cycles=5,
            critical_shard_index=1,
        )
        merged = merge_step_costs([cost, cost])
        # (40, 50, 50): arrays 1 and 2 tie; the recompute picks 1.
        assert merged.critical_shard_index == 1

    def test_merge_recomputes_critical_shard_from_merged_totals(self):
        a = ShardCost(
            backend="sharded", states=2, layer_cycles={"FC1": 50},
            shards=2, shard_cycles=(10, 40),
            critical_path_cycles=45, merge_cycles=5,
            critical_shard_index=1,
        )
        b = ShardCost(
            backend="sharded", states=2, layer_cycles={"FC1": 60},
            shards=2, shard_cycles=(50, 10),
            critical_path_cycles=55, merge_cycles=5,
            critical_shard_index=0,
        )
        merged = merge_step_costs([a, b])
        # Merged totals (60, 50): array 0 carried the most overall even
        # though each input named a different slowest array.
        assert merged.critical_shard_index == 0

    def test_plain_cost_critical_shard_is_array_zero(self):
        cost = StepCost(backend="systolic", states=2, layer_cycles={"FC1": 9})
        assert cost.critical_shard_index == 0

    def test_merge_accumulates_critical_paths_serially(self):
        a = ShardCost(
            backend="sharded", states=4, macs=10,
            layer_cycles={"CONV1": 100}, shards=2, shard_cycles=(60, 40),
            critical_path_cycles=70, merge_cycles=10,
        )
        b = ShardCost(
            backend="sharded", states=2, macs=5,
            layer_cycles={"CONV1": 50}, shards=2, shard_cycles=(25, 25),
            critical_path_cycles=30, merge_cycles=5,
        )
        merged = merge_step_costs([a, b])
        assert isinstance(merged, ShardCost)
        assert merged.shards == 2
        assert merged.shard_cycles == (85, 65)
        assert merged.critical_path_cycles == 100
        assert merged.merge_cycles == 15
        assert merged.total_cycles == 150

    def test_merge_mixes_plain_costs_onto_array_zero(self):
        plain = StepCost(backend="systolic", states=1, layer_cycles={"FC1": 20})
        shard = ShardCost(
            backend="sharded", states=2, layer_cycles={"FC1": 30},
            shards=2, shard_cycles=(18, 12),
            critical_path_cycles=20, merge_cycles=2,
        )
        merged = merge_step_costs([plain, shard])
        assert isinstance(merged, ShardCost)
        assert merged.shard_cycles == (38, 12)
        # The plain record's cycles are its own critical path.
        assert merged.critical_path_cycles == 40

    def test_plain_cost_exposes_single_array_view(self):
        cost = StepCost(backend="systolic", states=2, layer_cycles={"FC1": 9})
        assert cost.shards == 1
        assert cost.critical_path_cycles == cost.total_cycles == 9
        assert cost.merge_cycles == 0


class TestWeightBus:
    def test_flips_every_sync_every_publishes(self, rng):
        net = make_net()
        backend = SystolicBackend(net)
        bus = WeightBus(backend, sync_every=3)
        states = rng.uniform(0, 1, size=(2, 1, SIDE, SIDE))
        stale_q = backend.forward_batch(states)[0]
        flipped = []
        for _ in range(3):
            for p in net.parameters():
                p.value = p.value + 0.01
            flipped.append(bus.publish())
        assert flipped == [False, False, True]
        assert bus.flips == 1 and bus.publishes == 3 and bus.staleness == 0
        # Only the flip refreshed the serving snapshot.
        fresh_q = backend.forward_batch(states)[0]
        assert not np.array_equal(fresh_q, stale_q)
        assert np.array_equal(fresh_q, SystolicBackend(net).forward_batch(states)[0])

    def test_serving_snapshot_stays_stale_between_flips(self, rng):
        net = make_net()
        backend = SystolicBackend(net)
        bus = WeightBus(backend, sync_every=4)
        states = rng.uniform(0, 1, size=(2, 1, SIDE, SIDE))
        before = backend.forward_batch(states)[0]
        for p in net.parameters():
            p.value = p.value + 0.01
        bus.publish()
        assert bus.staleness == 1
        assert np.array_equal(backend.forward_batch(states)[0], before)
        bus.flip()  # forced download
        assert bus.staleness == 0
        assert not np.array_equal(backend.forward_batch(states)[0], before)

    def test_serve_staleness_accounting(self):
        bus = WeightBus(SystolicBackend(make_net()), sync_every=4)
        bus.note_serve(4)       # staleness 0
        bus.publish()
        bus.note_serve(4)       # staleness 1
        bus.publish()
        bus.note_serve(2)       # staleness 2
        assert bus.drain_serve_staleness() == pytest.approx((4 * 1 + 2 * 2) / 10)
        assert bus.drain_serve_staleness() == 0.0

    def test_validation(self):
        with pytest.raises(ValueError, match="sync_every"):
            WeightBus(SystolicBackend(make_net()), sync_every=0)

    def test_agent_default_is_synchronous(self):
        agent = QLearningAgent(make_net(), config=config_by_name("L4"), seed=0)
        assert agent.weight_bus.sync_every == 1


class TestNocModel:
    def test_flat_reduces_to_one_cycle_per_element(self):
        from repro.systolic.noc import NocModel

        noc = NocModel(topology="flat", nodes=8)
        for src, dst in ((0, 1), (0, 7), (3, 5)):
            assert noc.hops(src, dst) == 1
            # The degenerate model: n elements, n cycles, regardless of
            # distance — exactly the legacy merge charge.
            assert noc.transfer_cycles(123, src, dst) == 123
        assert noc.transfer_cycles(9, 2, 2) == 0
        assert noc.transfer_cycles(0, 0, 1) == 0
        assert noc.words_per_cycle == 1

    def test_ring_takes_the_short_way_around(self):
        from repro.systolic.noc import NocModel

        noc = NocModel(topology="ring", nodes=8, link_bits=128, word_bits=16)
        assert noc.hops(0, 1) == 1
        assert noc.hops(0, 4) == 4
        assert noc.hops(0, 5) == 3  # backwards: 0 -> 7 -> 6 -> 5
        assert noc.words_per_cycle == 8
        # 17 elements = 3 beats, times 3 hops, store-and-forward.
        assert noc.transfer_cycles(17, 0, 5) == 9
        assert noc.element_hops(17, 0, 5) == 51

    def test_mesh_pays_manhattan_distance(self):
        from repro.systolic.noc import NocModel

        noc = NocModel(topology="mesh", nodes=8)  # 2 rows x 4 cols
        assert noc.hops(0, 3) == 3
        assert noc.hops(0, 7) == 4  # (0,0) -> (1,3)
        assert noc.transfer_cycles(17, 0, 7) == 12  # ceil(17/8) * 4

    def test_validation(self):
        from repro.systolic.noc import NocModel

        with pytest.raises(ValueError, match="topology"):
            NocModel(topology="torus", nodes=4)
        with pytest.raises(ValueError, match="nodes"):
            NocModel(topology="ring", nodes=0)
        with pytest.raises(ValueError, match="narrower"):
            NocModel(topology="ring", nodes=4, link_bits=8, word_bits=16)
        with pytest.raises(ValueError, match="outside"):
            NocModel(topology="ring", nodes=4).hops(0, 4)

    def test_flat_merge_equals_hops_on_every_policy(self, rng):
        """Flat: 1 hop, 1 word/cycle, so merge cycles == element-hops —
        the exact-reduction invariant the pinned numbers rely on."""
        net = make_net()
        states = rng.uniform(0, 1, size=(8, 1, SIDE, SIDE))
        for policy in ("sample", "layer", "pipeline"):
            backend = ShardedBackend(net, shards=4, shard=policy, noc="flat")
            _, cost = backend.forward_batch(states)
            assert cost.merge_cycles == cost.merge_hops, policy
            assert cost.noc == "flat"

    def test_topology_changes_cost_but_not_bits(self, rng):
        net = make_net()
        states = rng.uniform(0, 1, size=(8, 1, SIDE, SIDE))
        ref_q, flat = ShardedBackend(
            net, shards=4, shard="layer", noc="flat"
        ).forward_batch(states)
        for topo in ("ring", "mesh"):
            q, cost = ShardedBackend(
                net, shards=4, shard="layer", noc=topo
            ).forward_batch(states)
            assert np.array_equal(q, ref_q), topo
            assert cost.noc == topo
            assert cost.merge_cycles != flat.merge_cycles
            # Wide links: a beat moves 8 words, so hop-priced cycles
            # sit below the element-hop traffic volume.
            assert cost.merge_cycles < cost.merge_hops


class TestPipelineSchedule:
    def test_uniform_width1_matches_hand_count(self):
        """4 chunks through 3 width-1 stages at 10 cycles each:
        makespan (4 + 3 - 1) * 10, fill/drain (3 - 1) * 10."""
        from repro.backend.sharded import _pipeline_schedule

        times = [[10] * 4 for _ in range(3)]
        critical, busy, assign = _pipeline_schedule(times, [1, 1, 1])
        assert critical == (4 + 3 - 1) * 10
        assert busy == [[40], [40], [40]]
        assert critical - max(max(b) for b in busy) == (3 - 1) * 10
        assert all(stage == [0, 0, 0, 0] for stage in assign)

    def test_replicated_stage_takes_chunks_round_robin(self):
        from repro.backend.sharded import _pipeline_schedule

        critical, busy, assign = _pipeline_schedule([[10] * 4], [2])
        # Two arrays drain four chunks in two waves.
        assert critical == 20
        assert busy == [[20, 20]]
        assert assign == [[0, 1, 0, 1]]

    def test_backend_fill_drain_matches_schedule_decomposition(self, rng):
        """critical == bottleneck busy + fill/drain + merge, and the
        fill/drain bubble is non-negative by construction."""
        net = make_net()
        states = rng.uniform(0, 1, size=(16, 1, SIDE, SIDE))
        for shards in (2, 4):
            _, cost = ShardedBackend(
                net, shards=shards, shard="pipeline"
            ).forward_batch(states)
            assert cost.fill_drain_cycles >= 0
            assert cost.critical_path_cycles == (
                max(cost.shard_cycles) + cost.fill_drain_cycles + cost.merge_cycles
            )

    def test_explicit_chunk_hand_count(self, rng):
        """pipeline_chunk=4 on a 16-row batch: 4 equal chunks, so each
        stage's per-chunk time is busy/4 and the measured fill/drain
        must reproduce from the schedule recurrence by hand."""
        from repro.backend.sharded import _pipeline_schedule

        net = make_net()
        states = rng.uniform(0, 1, size=(16, 1, SIDE, SIDE))
        backend = ShardedBackend(
            net, shards=2, shard="pipeline", pipeline_chunk=4
        )
        _, cost = backend.forward_batch(states)
        plan = next(iter(backend._plans.values()))
        assert plan.widths == (1, 1)
        times = [
            [cost.shard_cycles[arrays[0]] // 4] * 4
            for arrays in plan.stage_arrays
        ]
        critical, _busy, _assign = _pipeline_schedule(times, [1, 1])
        assert cost.fill_drain_cycles == critical - max(cost.shard_cycles)

    def test_pipeline_beats_layer_sharding_at_k8(self, rng):
        """The tentpole claim: where layer sharding collapses (0.59
        efficiency at K=8), the pipeline stays >= 0.75."""
        net = make_net()
        states = rng.uniform(0, 1, size=(64, 1, SIDE, SIDE))
        _, single = SystolicBackend(net).forward_batch(states)
        _, layer = ShardedBackend(net, shards=8, shard="layer").forward_batch(states)
        _, pipe = ShardedBackend(net, shards=8, shard="pipeline").forward_batch(states)
        assert pipe.critical_path_cycles < layer.critical_path_cycles
        eff = single.total_cycles / pipe.critical_path_cycles / 8
        assert eff >= 0.75

    def test_stage_plan_partitions_model_not_batch(self, rng):
        net = make_net()
        backend = ShardedBackend(net, shards=4, shard="pipeline")
        backend.forward_batch(rng.uniform(0, 1, size=(8, 1, SIDE, SIDE)))
        plan = next(iter(backend._plans.values()))
        assert plan.stages >= 2  # never degenerates to data parallelism
        assert sum(plan.widths) == 4
        flat_arrays = [a for arrays in plan.stage_arrays for a in arrays]
        assert sorted(flat_arrays) == [0, 1, 2, 3]  # disjoint coverage
        # Stage ranges tile the layer stack contiguously.
        assert plan.layer_ranges[0][0] == 0
        assert plan.layer_ranges[-1][1] == len(net.layers)
        for (lo, hi), (nlo, _nhi) in zip(plan.layer_ranges, plan.layer_ranges[1:]):
            assert hi == nlo > lo


def ship(backend, elements, src, dst):
    """NoC (cycles, element-hops) of one inter-array transfer."""
    return (
        backend._noc.transfer_cycles(elements, src, dst),
        backend._noc.element_hops(elements, src, dst),
    )


def _slice_layer(layer, lo: int, hi: int):
    """A copy of ``layer`` holding output slice ``[lo:hi)`` of its weights.

    Conv2D slices the filter axis, Dense the output-feature axis; the
    input dimension stays full because layer sharding broadcasts the
    whole activation to every array.
    """
    if isinstance(layer, Conv2D):
        return Conv2D(
            layer.in_channels, hi - lo, layer.kernel_size,
            stride=layer.stride, pad=layer.pad, name=layer.name,
        )
    return Dense(layer.in_features, hi - lo, name=layer.name)


def _copy_slice(src, dst, lo: int, hi: int) -> None:
    """Copy output slice ``[lo:hi)`` of ``src``'s weights into ``dst``."""
    if isinstance(src, Conv2D):
        dst.weight.value[...] = src.weight.value[lo:hi]
    else:
        dst.weight.value[...] = src.weight.value[:, lo:hi]
    dst.bias.value[...] = src.bias.value[lo:hi]


def reference_sample_forward(backend, states):
    """The sample forward as it used to execute, kept as an oracle.

    Every alive array forwards its own ``numpy.array_split`` chunk on
    the host, and the cost is assembled from the cycles those forwards
    measured plus the Q gather to the root array.  The backend now runs
    the numerics once and prices this plan; both must agree bit for
    bit.
    """
    from repro.backend.sharded import _argmax
    from repro.faults.injector import FAULTS

    x = np.asarray(states, dtype=np.float64)
    if FAULTS.enabled:
        backend._chaos_forward = FAULTS.injector.note_forward()
    active = backend._active_shards()
    outputs = []
    shard_cycles = [0] * backend.shards
    layer_cycles: dict[str, int] = {}
    macs = merge = hops = 0
    for k, chunk in zip(active, np.array_split(x, len(active))):
        if chunk.shape[0] == 0:
            continue
        q_k, cost_k = backend.array.forward_batch(chunk)
        outputs.append(q_k)
        cycles_k = cost_k.total_cycles
        if FAULTS.enabled:
            cycles_k += backend._chaos_extra(k, cycles_k)
        shard_cycles[k] = cycles_k
        macs += cost_k.macs
        for name, cycles in cost_k.layer_cycles.items():
            layer_cycles[name] = layer_cycles.get(name, 0) + cycles
        if k != active[0]:
            merge_k, hops_k = ship(backend, q_k.size, k, active[0])
            merge += merge_k
            hops += hops_k
    return np.concatenate(outputs, axis=0), ShardCost(
        backend=backend.name, states=x.shape[0], macs=macs,
        layer_cycles=layer_cycles, shards=backend.shards,
        shard_cycles=tuple(shard_cycles),
        critical_path_cycles=max(shard_cycles) + merge, merge_cycles=merge,
        critical_shard_index=_argmax(shard_cycles), merge_hops=hops,
        noc=backend.noc,
    )


def reference_layer_forward(backend, states):
    """The layer forward as it used to execute, kept as an oracle.

    Each alive array gets a sliced sub-network (its contiguous share of
    every layer's filters / output neurons) on its own
    ``SystolicBackend``; every parametric layer runs slice by slice on
    the full activation, the slices concatenate at the layer's hub, and
    the cost is assembled from the measured slice cycles plus the
    broadcast/gather traffic.  The backend now prices this plan from
    the cycle oracle; both must agree bit for bit.
    """
    from repro.backend.sharded import _argmax
    from repro.faults.injector import FAULTS

    x = np.asarray(states, dtype=np.float64)
    if FAULTS.enabled:
        backend._chaos_forward = FAULTS.injector.note_forward()
    active = backend._active_shards()
    array = backend.array
    plan = {}
    per_array = {k: [] for k in active}
    for index, layer in backend.network.parametric_layers():
        width = (
            layer.out_channels if isinstance(layer, Conv2D) else layer.out_features
        )
        bounds = np.linspace(0, width, len(active) + 1).astype(int)
        assignments = []
        for k, lo, hi in zip(active, bounds, bounds[1:]):
            if hi <= lo:
                continue
            sliced = _slice_layer(layer, lo, hi)
            _copy_slice(layer, sliced, lo, hi)
            assignments.append((k, sliced))
            per_array[k].append(sliced)
        plan[index] = assignments
    children = {
        k: SystolicBackend(
            Network(layers or [Dense(1, 1, name=f"idle{k}")]),
            config=array.config, fidelity=array.fidelity,
            quantized=array.quantized, weight_format=array.weight_format,
            activation_format=array.activation_format,
        )
        for k, layers in per_array.items()
    }
    x = array._requantize(x)
    shard_cycles = [0] * backend.shards
    layer_cycles: dict[str, int] = {}
    macs = merge = hops = critical = 0
    hub = None
    for index, layer in enumerate(backend.network.layers):
        assignments = plan.get(index)
        if not assignments:
            x = layer.forward(x, training=False)
        else:
            transfers = []
            if hub is not None:
                transfers += [
                    (x.size, hub, k) for k, _s in assignments if k != hub
                ]
            parts = []
            slice_cycles = []
            for k, sliced in assignments:
                out_k, cycles_k, macs_k = children[k].forward_layer(sliced, x)
                parts.append(out_k)
                shard_cycles[k] += cycles_k
                slice_cycles.append(cycles_k)
                macs += macs_k
            x = np.concatenate(parts, axis=1)
            layer_cycles[layer.name] = sum(slice_cycles)
            hub = assignments[0][0]
            transfers += [
                (part.size, k, hub)
                for (k, _s), part in zip(assignments[1:], parts[1:])
            ]
            for elements, src, dst in transfers:
                merge_t, hops_t = ship(backend, elements, src, dst)
                merge += merge_t
                hops += hops_t
            critical += max(slice_cycles)
        x = array._requantize(x)
    critical += merge
    if FAULTS.enabled:
        for k in active:
            if shard_cycles[k]:
                extra = backend._chaos_extra(k, shard_cycles[k])
                shard_cycles[k] += extra
                critical += extra
    return x, ShardCost(
        backend=backend.name, states=x.shape[0], macs=macs,
        layer_cycles=layer_cycles, shards=backend.shards,
        shard_cycles=tuple(shard_cycles), critical_path_cycles=critical,
        merge_cycles=merge, critical_shard_index=_argmax(shard_cycles),
        merge_hops=hops, noc=backend.noc,
    )


def reference_pipeline_forward(backend, states):
    """The pipeline forward as it used to execute, kept as an oracle.

    Every micro-batch runs through every stage on the host with
    ``forward_layer`` and a re-quantise after each layer, and the cost
    is assembled from the cycles that execution measured.  The backend
    now runs the numerics once and prices this schedule from the cycle
    oracle; both must agree bit for bit.
    """
    from repro.backend.sharded import _argmax, _pipeline_schedule
    from repro.faults.injector import FAULTS

    x = np.asarray(states, dtype=np.float64)
    if FAULTS.enabled:
        backend._chaos_forward = FAULTS.injector.note_forward()
    n = x.shape[0]
    active = backend._active_shards()
    chunk_rows = backend._resolve_pipeline_chunk(n, len(active))
    num_chunks = max(1, -(-n // chunk_rows))
    plan = backend._pipeline_plan(
        tuple(active), x.shape[1:], chunk_rows, num_chunks
    )
    chunks = [c for c in np.array_split(x, num_chunks) if c.shape[0] > 0]
    num_chunks = len(chunks)
    times = [[0] * num_chunks for _ in range(plan.stages)]
    boundary = [[0] * num_chunks for _ in range(plan.stages)]
    layer_cycles: dict[str, int] = {}
    macs = 0
    outputs = []
    child = backend.array
    for m, chunk in enumerate(chunks):
        h = child._requantize(chunk)
        for s, (lo, hi) in enumerate(plan.layer_ranges):
            if s > 0:
                boundary[s][m] = h.size
            for layer in backend.network.layers[lo:hi]:
                if isinstance(layer, (Conv2D, Dense)):
                    h, cycles, macs_m = child.forward_layer(layer, h)
                    times[s][m] += cycles
                    macs += macs_m
                    layer_cycles[layer.name] = (
                        layer_cycles.get(layer.name, 0) + cycles
                    )
                else:
                    h = layer.forward(h, training=False)
                h = child._requantize(h)
        outputs.append(h)
    critical, busy, assign = _pipeline_schedule(times, plan.widths)
    shard_cycles = [0] * backend.shards
    for s, arrays in enumerate(plan.stage_arrays):
        for a, orig in enumerate(arrays):
            shard_cycles[orig] = busy[s][a]
    merge = hops = 0
    transfers = [
        (
            boundary[s][m],
            plan.stage_arrays[s - 1][assign[s - 1][m]],
            plan.stage_arrays[s][assign[s][m]],
        )
        for s in range(1, plan.stages)
        for m in range(num_chunks)
    ]
    q_hub = plan.stage_arrays[-1][0]
    transfers += [
        (out.size, plan.stage_arrays[-1][assign[-1][m]], q_hub)
        for m, out in enumerate(outputs)
    ]
    for elements, src, dst in transfers:
        merge_m, hops_m = ship(backend, elements, src, dst)
        merge += merge_m
        hops += hops_m
    if FAULTS.enabled:
        for orig in active:
            if shard_cycles[orig]:
                extra = backend._chaos_extra(orig, shard_cycles[orig])
                shard_cycles[orig] += extra
                critical += extra
    return np.concatenate(outputs, axis=0), ShardCost(
        backend=backend.name, states=n, macs=macs, layer_cycles=layer_cycles,
        shards=backend.shards, shard_cycles=tuple(shard_cycles),
        critical_path_cycles=critical + merge, merge_cycles=merge,
        critical_shard_index=_argmax(shard_cycles), merge_hops=hops,
        fill_drain_cycles=critical - max(shard_cycles), noc=backend.noc,
    )


def assert_same_cost(cost, ref):
    import dataclasses

    for field in dataclasses.fields(ShardCost):
        assert getattr(cost, field.name) == getattr(ref, field.name), field.name


class TestPipelinePricingMatchesExecution:
    """The priced pipeline schedule equals the executed one."""

    @pytest.mark.parametrize("noc", ["flat", "ring", "mesh"])
    @pytest.mark.parametrize("shards", [1, 2, 3, 4, 8])
    def test_cost_and_bits_match_chunked_execution(self, shards, noc):
        net = make_net()
        backend = ShardedBackend(net, shards=shards, shard="pipeline", noc=noc)
        for batch in (1, 3, 7, 16, 17, 64):
            rng = np.random.default_rng(batch * 31 + shards)
            states = rng.uniform(0, 1, size=(batch, 1, SIDE, SIDE))
            ref_q, ref = reference_pipeline_forward(backend, states)
            q, cost = backend.forward_batch(states)
            assert np.array_equal(q, ref_q), batch
            assert_same_cost(cost, ref)

    @pytest.mark.parametrize("chunk", [1, 5, 16])
    def test_explicit_pipeline_chunk(self, chunk, rng):
        net = make_net()
        for shards in (2, 4):
            backend = ShardedBackend(
                net, shards=shards, shard="pipeline", noc="mesh",
                pipeline_chunk=chunk,
            )
            for batch in (16, 17):
                states = rng.uniform(0, 1, size=(batch, 1, SIDE, SIDE))
                ref_q, ref = reference_pipeline_forward(backend, states)
                q, cost = backend.forward_batch(states)
                assert np.array_equal(q, ref_q)
                assert_same_cost(cost, ref)

    def test_crash_failover_replan_and_chaos_extras(self):
        """A seeded plan kills array 1 mid-run and fires transient and
        straggler faults: the replanned schedule, the chaos extras and
        the fault ledger all match the executed reference."""
        from repro.faults import chaos, parse_fault_spec

        plan = parse_fault_spec("seed=3,crash=1@2,transient=0.4,straggler=0.4")
        net = make_net()
        batches = [
            np.random.default_rng(b).uniform(0, 1, size=(b, 1, SIDE, SIDE))
            for b in (16, 7, 16, 3)
        ]
        runs = []
        for forward in (reference_pipeline_forward, None):
            backend = ShardedBackend(net, shards=4, shard="pipeline", noc="mesh")
            results = []
            with chaos(plan) as inj:
                for states in batches:
                    inj.note_step()
                    if forward is None:
                        results.append(backend.forward_batch(states))
                    else:
                        results.append(forward(backend, states))
                runs.append((results, inj.event_log(), sorted(inj.dead_shards)))
        (ref_results, ref_log, ref_dead), (results, log, dead) = runs
        assert dead == ref_dead == [1]
        assert log == ref_log
        kinds = {event["kind"] for event in log}
        assert {"shard.crash", "shard.transient", "shard.straggler"} <= kinds
        for (ref_q, ref), (q, cost) in zip(ref_results, results):
            assert np.array_equal(q, ref_q)
            assert_same_cost(cost, ref)
        # Every forward after the crash replans over arrays 0, 2, 3.
        assert all(cost.shard_cycles[1] == 0 for _q, cost in results[1:])

    def test_one_shard_forward_span_per_forward(self, rng):
        """The span times the single executor pass and carries the
        priced critical path; no per-chunk spans are made up."""
        from repro.obs import MetricsRegistry, observed

        backend = ShardedBackend(make_net(), shards=4, shard="pipeline")
        states = rng.uniform(0, 1, size=(16, 1, SIDE, SIDE))
        with observed(registry=MetricsRegistry()) as (tracer, _):
            _, cost = backend.forward_batch(states)
        spans = [s for s in tracer.spans if s.name == "shard.forward"]
        assert len(spans) == 1
        assert spans[0].cycles == cost.critical_path_cycles
        assert spans[0].args["states"] == 16

    def test_float_pipeline_is_bitwise_the_single_array(self, rng):
        """One whole-batch float forward: no per-chunk BLAS shapes, so
        the float output is bitwise, not just within round-off."""
        net = make_net()
        states = rng.uniform(0, 1, size=(17, 1, SIDE, SIDE))
        ref_q, _ = SystolicBackend(net, quantized=False).forward_batch(states)
        for shards in (2, 4):
            q, _ = ShardedBackend(
                net, shards=shards, shard="pipeline", quantized=False
            ).forward_batch(states)
            assert np.array_equal(q, ref_q), shards

    def test_pe_fidelity_equals_fast(self):
        rng = np.random.default_rng(5)
        conv = Conv2D(1, 4, 3, stride=1, name="c", rng=rng)
        _, oh, ow = conv.output_shape(8, 8)
        net = Network(
            [conv, ReLU(), Flatten(), Dense(4 * oh * ow, 6, name="d", rng=rng)],
            name="tiny",
        )
        states = rng.uniform(0, 1, size=(4, 1, 8, 8))
        fast_q, fast = ShardedBackend(
            net, shards=2, shard="pipeline", fidelity="fast"
        ).forward_batch(states)
        pe_q, pe = ShardedBackend(
            net, shards=2, shard="pipeline", fidelity="pe"
        ).forward_batch(states)
        assert np.array_equal(pe_q, fast_q)
        assert pe == fast


REFERENCES = {
    "sample": reference_sample_forward,
    "layer": reference_layer_forward,
}

#: ``train_cost`` over policy x NoC x K x batch x first_trainable, as
#: recorded from the executing implementation this pricing replaced.
TRAIN_COST_PINS = Path(__file__).parent / "data" / "sharded_train_cost_pins.json"


class TestSampleLayerPricingMatchesExecution:
    """The priced sample and layer plans equal the executed ones."""

    @pytest.mark.parametrize("noc", ["flat", "ring", "mesh"])
    @pytest.mark.parametrize("shards", [1, 2, 3, 4, 8])
    @pytest.mark.parametrize("policy", ["sample", "layer"])
    def test_cost_and_bits_match_execution(self, policy, shards, noc):
        net = make_net()
        backend = ShardedBackend(net, shards=shards, shard=policy, noc=noc)
        for batch in (1, 3, 7, 16, 17, 64):
            rng = np.random.default_rng(batch * 31 + shards)
            states = rng.uniform(0, 1, size=(batch, 1, SIDE, SIDE))
            ref_q, ref = REFERENCES[policy](backend, states)
            q, cost = backend.forward_batch(states)
            assert np.array_equal(q, ref_q), batch
            assert_same_cost(cost, ref)

    @pytest.mark.parametrize("policy", ["sample", "layer"])
    def test_crash_failover_replan_and_chaos_extras(self, policy):
        """Array 1 crashes mid-run while transient and straggler faults
        fire: the replanned cost, the chaos extras and the fault ledger
        all match the executed reference."""
        from repro.faults import chaos, parse_fault_spec

        plan = parse_fault_spec("seed=3,crash=1@2,transient=0.4,straggler=0.4")
        net = make_net()
        batches = [
            np.random.default_rng(b).uniform(0, 1, size=(b, 1, SIDE, SIDE))
            for b in (16, 7, 16, 3)
        ]
        runs = []
        for forward in (REFERENCES[policy], None):
            backend = ShardedBackend(net, shards=4, shard=policy, noc="mesh")
            results = []
            with chaos(plan) as inj:
                for states in batches:
                    inj.note_step()
                    if forward is None:
                        results.append(backend.forward_batch(states))
                    else:
                        results.append(forward(backend, states))
                runs.append((results, inj.event_log(), sorted(inj.dead_shards)))
        (ref_results, ref_log, ref_dead), (results, log, dead) = runs
        assert dead == ref_dead == [1]
        assert log == ref_log
        kinds = {event["kind"] for event in log}
        assert {"shard.crash", "shard.transient", "shard.straggler"} <= kinds
        for (ref_q, ref), (q, cost) in zip(ref_results, results):
            assert np.array_equal(q, ref_q)
            assert_same_cost(cost, ref)
        assert all(cost.shard_cycles[1] == 0 for _q, cost in results[1:])

    def test_train_cost_matches_pins(self):
        import json

        pins = json.loads(TRAIN_COST_PINS.read_text())
        fields, layers = pins["fields"], pins["layers"]
        net = make_net()
        backends = {}
        for key, row in pins["rows"].items():
            policy, noc, shards, batch, first = key.split("/")
            config = (policy, noc, int(shards[1:]))
            if config not in backends:
                backends[config] = ShardedBackend(
                    net, shards=config[2], shard=policy, noc=noc
                )
            cost = backends[config].train_cost(
                int(batch[1:]), (1, SIDE, SIDE), first_trainable=int(first[2:])
            )
            expected = dict(zip(fields, row))
            expected["shard_cycles"] = tuple(expected["shard_cycles"])
            expected["layer_cycles"] = dict(zip(layers, expected["layer_cycles"]))
            for name, value in expected.items():
                assert getattr(cost, name) == value, (key, name)

    @pytest.mark.parametrize("policy", ["sample", "layer"])
    def test_float_output_is_bitwise_the_single_array(self, policy, rng):
        net = make_net()
        states = rng.uniform(0, 1, size=(17, 1, SIDE, SIDE))
        ref_q, _ = SystolicBackend(net, quantized=False).forward_batch(states)
        for shards in (2, 4):
            q, _ = ShardedBackend(
                net, shards=shards, shard=policy, quantized=False
            ).forward_batch(states)
            assert np.array_equal(q, ref_q), shards


class TestCrashFailoverServesPublishedWeights:
    @pytest.mark.parametrize("policy", ["sample", "layer", "pipeline"])
    def test_failover_keeps_the_serving_snapshot(self, policy, rng):
        """Weights trained but never published must not reach the
        datapath when a crash fails over onto the survivors."""
        from repro.faults.injector import FaultPlan, chaos

        net = make_net()
        backend = ShardedBackend(net, shards=4, shard=policy)
        states = rng.uniform(0, 1, size=(8, 1, SIDE, SIDE))
        published, _ = backend.forward_batch(states)
        for p in net.parameters():
            p.value = p.value + 0.05
        with chaos(FaultPlan(seed=0, shard_crashes=((1, 2),))) as inj:
            inj.note_step()
            served, cost = backend.forward_batch(states)
        assert cost.shard_cycles[2] == 0
        assert np.array_equal(served, published)


class TestShardEdgeCases:
    def test_zero_row_chunks_after_crash_failover(self):
        """batch=1 over K=4 with one array crashed: the three surviving
        arrays would get 1/0/0 rows — the empty chunks must neither
        dispatch nor charge merge traffic."""
        from repro.faults.injector import FAULTS, FaultPlan, chaos

        net = make_net()
        states = np.random.default_rng(3).uniform(0, 1, size=(1, 1, SIDE, SIDE))
        ref_q, _ = SystolicBackend(net).forward_batch(states)
        for policy in ("sample", "pipeline"):
            backend = ShardedBackend(net, shards=4, shard=policy)
            with chaos(FaultPlan(seed=0, shard_crashes=((1, 2),))) as inj:
                inj.note_step()
                q, cost = backend.forward_batch(states)
            assert np.array_equal(q, ref_q), policy
            # One row of work exists; idle and dead arrays charge zero.
            assert cost.shard_cycles[2] == 0, policy
            assert sum(1 for c in cost.shard_cycles if c > 0) >= 1
            # No gather traffic for rows that never moved: the single
            # chunk lives on one array end to end under sample; under
            # pipeline only real stage hand-offs charge.
            if policy == "sample":
                assert cost.merge_cycles == 0
            assert cost.merge_cycles == cost.merge_hops  # flat

    def test_consumer_accounting_matches_plan_walk(self, rng):
        """Pin the layer-policy all-gather charge: replay the plan and
        charge ``(consumers - hub) * activation + gather`` by hand; the
        backend's flat-NoC merge must agree exactly.  K=8 makes FC5
        (5 outputs) narrower than the array count, so consumer sets
        shrink and shift between layers — the case the charge could
        double- or under-count."""
        net = make_net()
        states = rng.uniform(0, 1, size=(3, 1, SIDE, SIDE))
        backend = ShardedBackend(net, shards=8, shard="layer")
        _, cost = backend.forward_batch(states)

        requantize = backend.array._requantize
        x = requantize(np.asarray(states, dtype=np.float64))
        expected = 0
        hub = None
        narrow_seen = False
        plan = backend._layer_plan(tuple(range(8)))
        for index, layer in enumerate(net.layers):
            assignments = plan.get(index)
            if not assignments:
                x = layer.forward(x, training=False)
            else:
                consumers = {k for k, _lo, _hi in assignments}
                if len(consumers) < 8:
                    narrow_seen = True
                if hub is not None:
                    # Hub consumes its own copy free; every other
                    # consumer's link carries the full activation once.
                    expected += len(consumers - {hub}) * x.size
                widths = [hi - lo for _k, lo, hi in assignments]
                x = layer.forward(x, training=False)
                hub = assignments[0][0]
                expected += x.size - x.size * widths[0] // sum(widths)
            x = requantize(x)
        assert narrow_seen  # FC5's 5 outputs over 8 arrays
        assert cost.merge_cycles == expected

    def test_idle_arrays_receive_no_broadcast(self, rng):
        """An array with no slice of a narrow layer is not a consumer —
        it must not appear in that layer's plan at all."""
        net = make_net()
        backend = ShardedBackend(net, shards=8, shard="layer")
        narrow = [
            assignments
            for assignments in backend._layer_plan(tuple(range(8))).values()
            if len(assignments) < 8
        ]
        assert narrow  # FC5 is narrower than K=8
        for assignments in narrow:
            ks = [k for k, _lo, _hi in assignments]
            assert len(set(ks)) == len(ks)


class TestModelParallelTraining:
    def test_layer_policy_no_longer_falls_back_to_data_parallel(self):
        net = make_net()
        sample = ShardedBackend(net, shards=4, shard="sample")
        layer = ShardedBackend(net, shards=4, shard="layer")
        tc_sample = sample.train_cost(16, (1, SIDE, SIDE), first_trainable=0)
        tc_layer = layer.train_cost(16, (1, SIDE, SIDE), first_trainable=0)
        # Distinct cost structure: model-parallel slices, not K copies
        # of the whole network over batch chunks.
        assert tc_layer.shard_cycles != tc_sample.shard_cycles
        assert tc_layer.merge_cycles != tc_sample.merge_cycles
        grad_elements = sum(p.size for p in net.parameters(0))
        # The data-parallel signature charge — (K-1) full weight
        # gradients — is gone: dW stays on the array that applies it.
        assert tc_sample.merge_cycles == 3 * grad_elements

    def test_frozen_prefix_training_merge_equals_inference_merge(self, rng):
        """With only the last parametric layer trainable there is no
        dX to reduce below it, so the layer policy's training traffic
        is exactly the forward broadcast/gather inference pays."""
        net = make_net()
        backend = ShardedBackend(net, shards=4, shard="layer")
        batch = 6
        states = rng.uniform(0, 1, size=(batch, 1, SIDE, SIDE))
        _, inf = backend.forward_batch(states)
        last_param = max(i for i, _l in net.parametric_layers())
        tc = backend.train_cost(batch, (1, SIDE, SIDE), first_trainable=last_param)
        assert tc.merge_cycles == inf.merge_cycles

    def test_full_training_adds_backward_traffic(self, rng):
        net = make_net()
        backend = ShardedBackend(net, shards=4, shard="layer")
        last_param = max(i for i, _l in net.parametric_layers())
        frozen = backend.train_cost(8, (1, SIDE, SIDE), first_trainable=last_param)
        full = backend.train_cost(8, (1, SIDE, SIDE), first_trainable=0)
        assert full.merge_cycles > frozen.merge_cycles
        assert full.critical_path_cycles > frozen.critical_path_cycles
        assert max(full.shard_cycles) > 0
        assert full.critical_path_cycles >= max(full.shard_cycles)

    def test_pipeline_training_charges_bubbles_and_boundaries(self):
        net = make_net()
        backend = ShardedBackend(net, shards=4, shard="pipeline")
        tc = backend.train_cost(32, (1, SIDE, SIDE), first_trainable=0)
        assert tc.fill_drain_cycles > 0
        assert tc.merge_cycles > 0
        assert tc.critical_path_cycles == (
            max(tc.shard_cycles) + tc.fill_drain_cycles + tc.merge_cycles
        )
        # Pipelined training beats the naive serial sum of its stages.
        assert tc.critical_path_cycles < sum(tc.shard_cycles)

    def test_train_cost_merge_survives_accumulation(self):
        """The new ShardCost fields flow through merge_step_costs."""
        a = ShardCost(
            backend="sharded", states=4, layer_cycles={"FC1": 100},
            shards=2, shard_cycles=(60, 40), critical_path_cycles=70,
            merge_cycles=10, merge_hops=30, fill_drain_cycles=5, noc="ring",
        )
        b = ShardCost(
            backend="sharded", states=4, layer_cycles={"FC1": 80},
            shards=2, shard_cycles=(40, 40), critical_path_cycles=50,
            merge_cycles=10, merge_hops=30, fill_drain_cycles=3, noc="ring",
        )
        merged = merge_step_costs([a, b])
        assert merged.merge_hops == 60
        assert merged.fill_drain_cycles == 8
        assert merged.noc == "ring"


class TestStalenessRegression:
    def test_agreement_stays_high_at_sync_every_4(self, stale_rollout):
        """Serving a snapshot up to 3 updates stale must not break the
        policy: fixed-point vs float action agreement >= 0.95."""
        agent, states, _report = stale_rollout
        assert agent.backend.agreement_rate(states) >= 0.95

    def test_round_stats_measure_staleness_and_shards(self, stale_rollout):
        agent, _states, report = stale_rollout
        assert report.backend == "sharded"
        assert report.shards == 4
        assert report.total_critical_path_cycles > 0
        # Work strictly exceeds the parallel wall-clock.
        assert (
            report.total_critical_path_cycles < report.total_inference_cycles
        )
        # sync_every=4 with many updates: served staleness is visible
        # but bounded by the flip cadence.
        assert 0.0 < report.mean_sync_staleness < 4.0
        for stats in report.rounds:
            assert stats.shards == 4
            assert 0 < stats.critical_path_cycles < stats.inference_cycles
        # The bus flipped on cadence: staleness never reached sync_every.
        assert agent.weight_bus.staleness < 4
