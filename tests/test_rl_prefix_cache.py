"""Online updates forward only the trainable tail.

Each replay slot caches its state's and next state's activations at the
trainable boundary (the output of the frozen NVM prefix), so an update
of an L2/L3/L4 agent runs the prefix only for slots it has never drawn.
Contracts under test:

* **Bitwise equivalence** — losses, Bellman targets and weights equal,
  bit for bit, those of the reference update below (a copy of the
  uncached update: every call forwards the whole network twice), for
  L2/L3/L4/E2E at batch sizes 2, 8 and 128, with target-network and
  double-DQN bootstraps, across a wrapping replay ring, after
  ``load_state_dict``, after an in-place write to a frozen weight, and
  with a dropout layer in the prefix (which is never cached).
* **Invalidation** — the cache is dropped when the prefix's weights
  change, and E2E (no prefix) stores nothing.
* **Row independence** — the prefix maps each row the same way at every
  batch size of at least 2, which is what makes cached rows exact.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.rl.agent as agent_module
from repro.env.episode import Transition
from repro.nn import Dense, Dropout, Flatten, Network, ReLU
from repro.nn import build_network, scaled_drone_net_spec
from repro.nn.losses import q_learning_loss
from repro.obs import MetricsRegistry, observed
from repro.rl import QLearningAgent, config_by_name

SIDE = 16
SPEC = scaled_drone_net_spec(input_side=SIDE)


def reference_train_step(agent, batch_size):
    """The uncached update: both forwards run the whole network.

    Returns ``(loss, targets)``.
    """
    net = agent.network
    states, actions, rewards, next_states, dones = agent.replay.sample(
        batch_size, agent.rng
    )
    if agent._target_state is None:
        bootstrap = net.predict(next_states).max(axis=1)
    else:
        params = net.parameters()
        saved = [p.value for p in params]
        for p in params:
            p.value = agent._target_state[p.name]
        try:
            target_q = net.predict(next_states)
        finally:
            for p, value in zip(params, saved):
                p.value = value
        if agent.double_dqn:
            online = net.predict(next_states).argmax(axis=1)
            bootstrap = target_q[np.arange(target_q.shape[0]), online]
        else:
            bootstrap = target_q.max(axis=1)
    targets = rewards + agent.gamma * (1.0 - dones) * bootstrap
    q_pred = net.forward(states, training=True)
    loss, grad = q_learning_loss(q_pred, actions, targets)
    net.zero_grad()
    net.backward(grad, first_trainable=agent.first_trainable)
    agent._clip_gradients()
    agent.optimizer.step()
    agent.train_count += 1
    agent.last_loss = loss
    if (
        agent.target_sync_every is not None
        and agent.train_count % agent.target_sync_every == 0
    ):
        agent._target_state = net.state_dict()
    agent.weight_bus.publish()
    return loss, targets


def cached_train_step(agent, batch_size, monkeypatch):
    """``agent.train_step_batch`` with its Bellman targets captured."""
    seen = []

    def loss(q_pred, actions, targets):
        seen.append(targets.copy())
        return q_learning_loss(q_pred, actions, targets)

    with monkeypatch.context() as m:
        m.setattr(agent_module, "q_learning_loss", loss)
        value = agent.train_step_batch(batch_size)
    (targets,) = seen
    return value, targets


def same(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def make_agent(config, network=None, **kwargs):
    return QLearningAgent(
        build_network(SPEC, seed=3) if network is None else network(),
        config=config_by_name(config),
        seed=11,
        **kwargs,
    )


def transitions(rng, n):
    out = []
    for _ in range(n):
        state = rng.random((1, SIDE, SIDE))
        out.append(
            Transition(
                state,
                int(rng.integers(5)),
                float(rng.normal()),
                np.clip(state + rng.normal(scale=0.05, size=state.shape), 0, 1),
                bool(rng.random() < 0.2),
            )
        )
    return out


def run_pair(monkeypatch, config, batch, steps=5, push=None, mutate=None, **kwargs):
    """Train a cached and a reference agent in lockstep; assert every
    update's loss and targets, and the final weights, are bitwise equal.
    Returns the cached agent."""
    push = batch // 2 + 1 if push is None else push
    cached, reference = make_agent(config, **kwargs), make_agent(config, **kwargs)
    data = transitions(np.random.default_rng(7), batch + push * steps)
    for t in data[:batch]:
        cached.observe(t)
        reference.observe(t)
    for step in range(steps):
        for t in data[batch + push * step : batch + push * (step + 1)]:
            cached.observe(t)
            reference.observe(t)
        if mutate is not None:
            mutate(step, cached)
            mutate(step, reference)
        loss, targets = cached_train_step(cached, batch, monkeypatch)
        ref_loss, ref_targets = reference_train_step(reference, batch)
        assert same(loss, ref_loss), (step, loss, ref_loss)
        assert same(targets, ref_targets), step
    state, ref_state = cached.network.state_dict(), reference.network.state_dict()
    for name in ref_state:
        assert same(state[name], ref_state[name]), name
    if cached._target_state is not None:
        for name in ref_state:
            assert same(cached._target_state[name], reference._target_state[name])
    return cached


class TestBitwiseEquivalence:
    @pytest.mark.parametrize("batch", [2, 8, 128])
    @pytest.mark.parametrize("config", ["L2", "L3", "L4", "E2E"])
    def test_matches_uncached_update(self, monkeypatch, config, batch):
        run_pair(monkeypatch, config, batch)

    @pytest.mark.parametrize("double_dqn", [False, True])
    @pytest.mark.parametrize("config", ["L2", "L4"])
    def test_target_network(self, monkeypatch, config, double_dqn):
        run_pair(
            monkeypatch, config, 8, steps=7,
            target_sync_every=3, double_dqn=double_dqn,
        )

    @pytest.mark.parametrize("config", ["L2", "E2E"])
    def test_replay_ring_wraps(self, monkeypatch, config):
        # 8 + 6 * 12 = 80 pushes through 24 slots: every slot is
        # overwritten, most of them after their encoding was cached.
        agent = run_pair(
            monkeypatch, config, 8, steps=12, push=6, replay_capacity=24
        )
        assert len(agent.replay) == agent.replay.capacity

    @pytest.mark.parametrize("target", [None, 2])
    def test_load_state_dict_after_training(self, monkeypatch, target):
        other = build_network(SPEC, seed=99).state_dict()

        def load(step, agent):
            if step == 3:
                agent.network.load_state_dict(other)

        run_pair(monkeypatch, "L2", 8, steps=6, mutate=load, target_sync_every=target)

    @pytest.mark.parametrize("target", [None, 2])
    def test_in_place_write_to_frozen_weight(self, monkeypatch, target):
        def write(step, agent):
            if step == 3:
                agent.network.layers[0].weight.value.flat[0] += 1e-3

        run_pair(monkeypatch, "L2", 8, steps=6, mutate=write, target_sync_every=target)


    def test_prefix_with_dropout_is_recomputed(self, monkeypatch):
        # Training-mode dropout draws a fresh mask every forward, so its
        # output cannot be cached.
        def network():
            rng = np.random.default_rng(4)
            return Network([
                Flatten(),
                Dense(SIDE * SIDE, 32, name="FC1", rng=rng),
                Dropout(0.5, seed=1),
                ReLU(),
                Dense(32, 16, name="FC2", rng=rng),
                ReLU(),
                Dense(16, 5, name="FC3", rng=rng),
            ])

        run_pair(monkeypatch, "L2", 8, network=network)


def prefix_rows(registry):
    counters = registry.snapshot()["counters"]
    return {
        source: counters.get(
            f'repro_agent_prefix_rows_total{{source="{source}"}}', 0
        )
        for source in ("computed", "cached")
    }


class TestCache:
    def test_slots_encode_once(self):
        agent = make_agent("L2", batch_size=8)
        for t in transitions(np.random.default_rng(1), 8):
            agent.observe(t)
        with observed(registry=MetricsRegistry()) as (_, registry):
            agent.train_step()
            assert prefix_rows(registry) == {"computed": 16, "cached": 0}
            agent.train_step()
            assert prefix_rows(registry) == {"computed": 16, "cached": 16}

    def test_prefix_write_drops_the_cache(self):
        agent = make_agent("L2", batch_size=8)
        for t in transitions(np.random.default_rng(1), 8):
            agent.observe(t)
        agent.train_step()
        agent.network.layers[0].bias.value[0] += 1.0
        with observed(registry=MetricsRegistry()) as (_, registry):
            agent.train_step()
            assert prefix_rows(registry) == {"computed": 16, "cached": 0}

    def test_overwritten_slot_is_recomputed(self):
        agent = make_agent("L2", batch_size=8, replay_capacity=8)
        data = transitions(np.random.default_rng(1), 9)
        for t in data[:8]:
            agent.observe(t)
        agent.train_step()
        agent.observe(data[8])
        with observed(registry=MetricsRegistry()) as (_, registry):
            agent.train_step()
            assert prefix_rows(registry) == {"computed": 2, "cached": 14}

    def test_trainable_weights_do_not_drop_the_cache(self):
        agent = make_agent("L4", batch_size=8)
        for t in transitions(np.random.default_rng(1), 8):
            agent.observe(t)
        for _ in range(3):
            agent.train_step()
        with observed(registry=MetricsRegistry()) as (_, registry):
            agent.train_step()
            assert prefix_rows(registry) == {"computed": 0, "cached": 16}

    def test_end_to_end_caches_nothing(self):
        agent = make_agent("E2E", batch_size=8)
        for t in transitions(np.random.default_rng(1), 8):
            agent.observe(t)
        with observed(registry=MetricsRegistry()) as (_, registry):
            agent.train_step()
            assert prefix_rows(registry) == {"computed": 0, "cached": 0}
        assert agent.replay._codes is None


NETWORK = build_network(SPEC, seed=5)


@settings(max_examples=25, deadline=None)
@given(
    config=st.sampled_from(["L2", "L3", "L4"]),
    n=st.integers(2, 48),
    k=st.integers(2, 48),
    seed=st.integers(0, 1000),
)
def test_prefix_rows_do_not_depend_on_batch(config, n, k, seed):
    """The frozen prefix maps a row the same way in any batch of >= 2.

    At batch 1 numpy takes the matrix-vector path in ``Dense`` and a row
    can round differently, so batch 1 is excluded; the replay never
    encodes fewer than 2 rows (a state always goes with its next state).
    """
    k = min(k, n)
    stop = config_by_name(config).first_trainable_layer(NETWORK)
    x = np.random.default_rng(seed).random((n, 1, SIDE, SIDE))
    full = NETWORK.forward(x, stop=stop)
    assert same(NETWORK.forward(x[:k], stop=stop), full[:k])
    assert same(NETWORK.forward(x[n - k :], stop=stop), full[n - k :])
