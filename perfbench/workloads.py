"""The benchmark's three workloads and their output checks.

Each workload builds its inputs from the seed, runs one *unit* of work
per call (a scheduler round, or one pair of transfer experiments) and
checks that unit's outputs afterwards, outside the timed window.  A
check returns how many of the unit's operations (frames + updates)
failed.  Why each workload exists is written down in ``README.md``.
"""

from __future__ import annotations

import time

import numpy as np

from repro.backend import NumpyBackend, StepCostAccumulator
from repro.backend.sharded import ShardedBackend
from repro.backend.systolic_backend import SystolicBackend
from repro.env.camera import DepthCamera, StereoNoiseModel
from repro.env.episode import NavigationEnv
from repro.env.generators import ENVIRONMENTS, META_FOR_TEST, make_environment
from repro.fleet import FleetScheduler, VecNavigationEnv
from repro.nn.alexnet import build_network, scaled_drone_net_spec
from repro.rl import experiment
from repro.rl.agent import EpsilonSchedule, QLearningAgent
from repro.rl.transfer import TRANSFER_CONFIGS, config_by_name
from repro.systolic.array import PAPER_ARRAY

from layers import Patches

IMAGE_SIDE = 16
_clock = time.perf_counter


def bitwise_equal(a: np.ndarray, b: np.ndarray) -> bool:
    """Same dtype, shape and bytes."""
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def new_network(seed: int):
    return build_network(scaled_drone_net_spec(input_side=IMAGE_SIDE), seed=seed)


class Meter:
    """End-to-end instruments, installed for the whole run.

    Times every act call that ran the policy forward and every online
    update, keeps each update's loss for the checks, captures the Q
    values served by greedy (evaluation) act calls, and folds every
    backend :class:`~repro.backend.StepCost` into one ledger.
    """

    def __init__(self, backend_cls):
        self.recording = False
        self.capturing = False
        self.act_ms: list[float] = []
        self.update_ms: list[float] = []
        self.losses: list[float] = []
        self.served: list[tuple[np.ndarray, np.ndarray]] = []
        self.forwards = 0
        self._scaled = (0, 0)
        self.costs = StepCostAccumulator()
        self._capture_now = False
        self.patches = Patches()
        self.patches.add(QLearningAgent, "select_action", self._act)
        self.patches.add(QLearningAgent, "act_batch", self._act)
        self.patches.add(QLearningAgent, "train_step_batch", self._update)
        self.patches.add(backend_cls, "forward_batch", self._forward)

    def rescale(self, scale: float) -> None:
        """Scale the latency samples taken since the last call."""
        for samples, begin in zip((self.act_ms, self.update_ms), self._scaled):
            samples[begin:] = [v * scale for v in samples[begin:]]
        self._scaled = (len(self.act_ms), len(self.update_ms))

    def _act(self, fn):
        meter = self

        def act(agent, *args, **kwargs):
            before = meter.forwards
            meter._capture_now = meter.capturing and kwargs.get("greedy", False)
            start = _clock()
            actions = fn(agent, *args, **kwargs)
            elapsed = _clock() - start
            meter._capture_now = False
            if meter.recording and meter.forwards != before:
                meter.act_ms.append(elapsed * 1e3)
            return actions

        return act

    def _update(self, fn):
        meter = self

        def update(agent, *args, **kwargs):
            start = _clock()
            loss = fn(agent, *args, **kwargs)
            elapsed = _clock() - start
            if meter.recording:
                meter.update_ms.append(elapsed * 1e3)
            meter.losses.append(loss)
            return loss

        return update

    def _forward(self, fn):
        meter = self

        def forward(backend, states):
            q_values, cost = fn(backend, states)
            meter.forwards += 1
            if meter.recording:
                meter.costs.add(cost)
            if meter._capture_now:
                meter.served.append((states, q_values))
            return q_values, cost

        return forward


class Fleet:
    """``FleetScheduler.run`` rounds over 16 envs of every class."""

    num_envs = 16

    def __init__(self, sharded: bool, steps: int = 50, eval_steps: int = 50):
        self.sharded = sharded
        self.steps = steps
        self.eval_steps = eval_steps
        self.backend_cls = ShardedBackend if sharded else NumpyBackend
        self.config = config_by_name("L2" if sharded else "E2E")
        self.train_critical_path_cycles = 0
        self.train_updates = 0

    def setup(self, seed: int) -> None:
        names = sorted(ENVIRONMENTS)
        vec_env = VecNavigationEnv.from_names(
            names,
            seeds=[seed * self.num_envs + i for i in range(self.num_envs)],
            image_side=IMAGE_SIDE,
            max_episode_steps=400,
        )
        network = new_network(seed)
        if self.sharded:
            backend = ShardedBackend(network, shards=4, shard="pipeline", noc="mesh")
        else:
            backend = NumpyBackend(network)
        # Exploration anneals over the warm-up round, so from the first
        # timed round on nearly every act call runs the forward.
        agent = QLearningAgent(
            network,
            config=self.config,
            epsilon=EpsilonSchedule(
                1.0, 0.1, self.num_envs * (self.steps + self.eval_steps)
            ),
            seed=seed,
            backend=backend,
            sync_every=1,
            train_on_array=self.sharded,
        )
        self.network = network
        self.scheduler = FleetScheduler(
            agent, vec_env, train_every=2, eval_steps=self.eval_steps
        )

    def unit(self, index: int, clock) -> None:
        self.report = clock.segment(self.scheduler.run, rounds=1, steps_per_round=self.steps)
        for r in self.report.rounds:
            self.train_critical_path_cycles += r.training_critical_path_cycles
            self.train_updates += r.train_updates

    def counts(self) -> tuple[int, int]:
        return self.report.total_env_steps, self.report.total_train_updates

    def check(self, meter: Meter, losses: list[float]) -> int:
        """Failed frames + updates of the last round."""
        report = self.report
        expected = (self.steps + self.eval_steps) * self.num_envs
        failed = abs(expected - report.total_env_steps)
        failed += abs(len(losses) - report.total_train_updates)
        failed += sum(1 for loss in losses if not np.isfinite(loss))
        if not all(np.isfinite(v) for v in report.sfd_by_class.values()):
            failed += report.total_env_steps
        # Every evaluation act call is greedy, so it ran the forward and
        # its Q values were captured; no update ran after them, so the
        # live network is the one that served them.
        failed += abs(self.eval_steps - len(meter.served)) * self.num_envs
        if self.sharded and meter.served:
            # The quantised datapath sums exact integers, so rows do not
            # depend on their batch: one reference forward serves all.
            expect = SystolicBackend(self.network).forward_batch(
                np.concatenate([states for states, _ in meter.served])
            )[0]
            bounds = np.cumsum([0] + [states.shape[0] for states, _ in meter.served])
            expected = [expect[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])]
        else:
            expected = [self.network.predict(states) for states, _ in meter.served]
        for (states, q_values), expect in zip(meter.served, expected):
            if not bitwise_equal(q_values, expect):
                failed += states.shape[0]
        return failed


class TransferPair:
    """``run_transfer_experiment`` for one indoor and one outdoor env."""

    test_envs = ("indoor-apartment", "outdoor-forest")
    backend_cls = NumpyBackend

    def __init__(self, meta_iterations: int = 200, adapt_iterations: int = 200):
        self.meta_iterations = meta_iterations
        self.adapt_iterations = adapt_iterations
        self.train_critical_path_cycles = 0
        self.train_updates = 0
        self.metas: list = []
        # Each phase (meta-training, one adaptation) is a clock segment;
        # the meta-model is kept for the NVM check.
        self.patches = Patches()
        self.patches.add(experiment, "meta_train", self._phase(self.metas))
        self.patches.add(experiment, "online_adapt", self._phase(None))

    def _phase(self, keep):
        def wrap(fn):
            def phase(*args, **kwargs):
                result = self.clock.segment(fn, *args, **kwargs)
                if keep is not None:
                    keep.append(result)
                return result

            return phase

        return wrap

    def setup(self, seed: int) -> None:
        # What the pair of experiments builds before stepping: per test
        # env, the meta phase's world and network, then one test world
        # and network per transfer configuration.
        self.seed = seed
        for offset, name in enumerate(self.test_envs):
            phase_seed = self._seed(1, offset)
            phases = [(META_FOR_TEST[name], phase_seed)]
            phases += [(name, phase_seed + 13)] * len(TRANSFER_CONFIGS)
            for env_name, env_seed in phases:
                world = make_environment(env_name, seed=env_seed)
                camera = DepthCamera(
                    width=IMAGE_SIDE, height=IMAGE_SIDE, noise=StereoNoiseModel()
                )
                NavigationEnv(world, camera=camera, seed=env_seed + 7)
                self.network = new_network(env_seed)
        self.frozen_names = {
            config.name: [
                p.name
                for layer in self.network.layers[
                    : config.first_trainable_layer(self.network)
                ]
                for p in layer.parameters()
            ]
            for config in TRANSFER_CONFIGS
        }

    def _seed(self, index: int, offset: int) -> int:
        return self.seed * 1009 + index * len(self.test_envs) + offset

    def unit(self, index: int, clock) -> None:
        self.metas.clear()
        self.clock = clock
        self.patches.install()
        try:
            self.results = [
                experiment.run_transfer_experiment(
                    name,
                    meta_iterations=self.meta_iterations,
                    adapt_iterations=self.adapt_iterations,
                    seed=self._seed(index, offset),
                    image_side=IMAGE_SIDE,
                )
                for offset, name in enumerate(self.test_envs)
            ]
        finally:
            self.patches.uninstall()

    def counts(self) -> tuple[int, int]:
        frames = len(self.test_envs) * (
            self.meta_iterations + len(TRANSFER_CONFIGS) * self.adapt_iterations
        )
        updates = sum(
            len(r.curves.loss_curve)
            for meta, results in zip(self.metas, self.results)
            for r in [meta, *results.values()]
        )
        return frames, updates

    def check(self, meter: Meter, losses: list[float]) -> int:
        """Failed frames + updates of the last pair of experiments.

        The NVM (every parameter below the trainable boundary) must
        still hold the meta-model bit for bit after online adaptation.
        """
        frames, updates = self.counts()
        if len(self.metas) != len(self.test_envs):
            return frames + updates
        failed = abs(len(losses) - updates)
        for meta, results in zip(self.metas, self.results):
            runs = [(meta, self.meta_iterations, [])]
            runs += [
                (results[c.name], self.adapt_iterations, self.frozen_names[c.name])
                for c in TRANSFER_CONFIGS
            ]
            for result, iterations, frozen in runs:
                curves = result.curves
                failed += abs(iterations - result.iterations)
                failed += abs(iterations - len(curves.reward_curve))
                failed += sum(1 for v in curves.loss_curve if not np.isfinite(v))
                if not np.isfinite(result.safe_flight_distance):
                    failed += iterations
                if any(
                    not bitwise_equal(result.final_state[n], meta.final_state[n])
                    for n in frozen
                ):
                    failed += max(len(curves.loss_curve), 1)
        return failed


def make(name: str, small: bool = False):
    """The workload called ``name``; ``small`` shrinks its units."""
    if name == "tl-single":
        return TransferPair(30, 30) if small else TransferPair()
    if name == "fleet-float":
        return Fleet(False, 8, 6) if small else Fleet(False)
    if name == "fleet-sharded":
        return Fleet(True, 8, 6) if small else Fleet(True)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("tl-single", "fleet-float", "fleet-sharded")
CLOCK_HZ = PAPER_ARRAY.clock_hz
