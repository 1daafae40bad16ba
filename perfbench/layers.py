"""Layer wrappers installed from outside the program.

Each wrapper replaces a public function or method of ``repro`` while a
traced unit of work runs and is removed afterwards; no file of the
program changes.  Two kinds of time are kept:

* **system layers** (``env.*``, ``agent.*``, ``replay.*``, ``nn.*``,
  ``systolic.*``, ``fixedpoint.*``, ``backend.*``, ``shard.*``) share one
  call stack, so each reports its *self* time: a wrapped call's duration
  minus the part covered by wrapped calls made inside it;
* **network layers** (``nn.<L>.fwd_s`` / ``nn.<L>.bwd_s`` for the float
  network, ``backend.<L>.fwd_s`` for the array datapath) are inclusive
  times kept beside the stack, so they do not hide the kernels they call
  from the system-layer view.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

_clock = time.perf_counter


class Tracer:
    """Self-time accounting over a stack of wrapped calls."""

    def __init__(self, layer_groups: dict[str, str]):
        #: Network layer name -> reported group (``CONV1.relu`` -> ``CONV1``).
        self.layer_groups = layer_groups
        self._stack: list[float] = []  # child time of each open frame
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.incl_s: dict[str, float] = defaultdict(float)
        self.work: dict[str, int] = defaultdict(int)
        self.layer_s: dict[str, float] = defaultdict(float)
        # Float-network context: per-layer times count only inside
        # Network.forward/backward; the frozen share only inside updates.
        self.nn_depth = 0
        self.frozen: frozenset[str] | None = None
        self.update_fwd_s = 0.0
        self.update_frozen_fwd_s = 0.0

    def span(self, name: str, fn, work=None):
        """``fn`` timed as system layer ``name``; ``work(args)`` is an
        optional count (rows, states) summed under the same name."""
        stack = self._stack
        calls, self_s, incl_s, counted = (
            self.calls, self.self_s, self.incl_s, self.work
        )

        def wrapped(*args, **kwargs):
            stack.append(0.0)
            start = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = _clock() - start
                child = stack.pop()
                calls[name] += 1
                self_s[name] += elapsed - child
                incl_s[name] += elapsed
                if work is not None:
                    counted[name] += work(args)
                if stack:
                    stack[-1] += elapsed

        return wrapped

    def nn_span(self, name: str, fn, work=None):
        """A system-layer span that also opens the float-network context."""
        timed = self.span(name, fn, work)
        tracer = self

        def wrapped(*args, **kwargs):
            tracer.nn_depth += 1
            try:
                return timed(*args, **kwargs)
            finally:
                tracer.nn_depth -= 1

        return wrapped

    def update_span(self, fn):
        """``agent.update``, recording which layers sit below the
        updating agent's trainable boundary (the NVM prefix)."""
        timed = self.span("agent.update", fn)
        tracer = self

        def wrapped(agent, *args, **kwargs):
            tracer.frozen = frozenset(
                layer.name for layer in agent.network.layers[: agent.first_trainable]
            )
            try:
                return timed(agent, *args, **kwargs)
            finally:
                tracer.frozen = None

        return wrapped

    def layer_timer(self, fn, suffix: str):
        """Inclusive per-layer time of a float-network layer method."""
        tracer = self
        groups = self.layer_groups

        def wrapped(layer, *args, **kwargs):
            if tracer.nn_depth == 0:
                return fn(layer, *args, **kwargs)
            start = _clock()
            try:
                return fn(layer, *args, **kwargs)
            finally:
                elapsed = _clock() - start
                group = groups.get(layer.name, layer.name)
                tracer.layer_s[f"nn.{group}.{suffix}"] += elapsed
                if suffix == "fwd_s" and tracer.frozen is not None:
                    tracer.update_fwd_s += elapsed
                    if layer.name in tracer.frozen:
                        tracer.update_frozen_fwd_s += elapsed

        return wrapped

    def array_layer_span(self, fn):
        """``shard.forward_layer`` plus inclusive ``backend.<L>.fwd_s``."""
        timed = self.span("shard.forward_layer", fn)
        layer_s = self.layer_s

        def wrapped(backend, layer, *args, **kwargs):
            start = _clock()
            try:
                return timed(backend, layer, *args, **kwargs)
            finally:
                layer_s[f"backend.{layer.name}.fwd_s"] += _clock() - start

        return wrapped


class Patches:
    """Attribute swaps that can be installed and removed repeatedly."""

    def __init__(self):
        self._swaps: list[tuple[object, str, object, bool, object]] = []

    def add(self, owner, attr: str, make) -> None:
        """Swap ``owner.attr`` for ``make(current value)``."""
        own = attr in vars(owner)
        current = getattr(owner, attr)
        self._swaps.append((owner, attr, current, own, make(current)))

    def add_function(self, fn, replacement) -> None:
        """Swap ``fn`` wherever a loaded ``repro`` module bound its name."""
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "repro" or name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._swaps.append((module, attr, fn, True, replacement))

    def install(self) -> None:
        for owner, attr, _orig, _own, new in self._swaps:
            setattr(owner, attr, new)

    def uninstall(self) -> None:
        for owner, attr, orig, own, _new in reversed(self._swaps):
            if own:
                setattr(owner, attr, orig)
            else:
                delattr(owner, attr)


def layer_groups(network) -> dict[str, str]:
    """Group each layer with the conv, pool or FC layer it follows.

    ReLUs report under their conv or FC layer and ``flatten`` under the
    pool before it, so the groups are CONV1, CONV1.pool, CONV2,
    CONV2.pool and FC1-FC5.
    """
    from repro.nn.layers import Conv2D, Dense, MaxPool2D

    groups: dict[str, str] = {}
    current = None
    for layer in network.layers:
        if current is None or isinstance(layer, (Conv2D, Dense, MaxPool2D)):
            current = layer.name
        groups[layer.name] = current
    return groups


def layer_patches(tracer: Tracer, network, backend_cls) -> Patches:
    """Every layer wrapper for ``network``'s layer types and a backend
    of class ``backend_cls``."""
    from repro.backend.systolic_backend import SystolicBackend
    from repro.env.camera import DepthCamera
    from repro.env.episode import NavigationEnv
    from repro.fixedpoint.qformat import QFormat
    from repro.fleet.vec_env import FleetCollider, FleetRenderer, VecNavigationEnv
    from repro.nn.network import Network
    from repro.rl.agent import QLearningAgent
    from repro.rl.replay import ReplayBuffer
    from repro.systolic import kernels

    p = Patches()

    def span(owner, attr, name, work=None):
        p.add(owner, attr, lambda fn: tracer.span(name, fn, work))

    def rows(args):
        return int(args[1].shape[0])

    span(NavigationEnv, "step", "env.step")
    span(VecNavigationEnv, "step", "env.step")
    span(DepthCamera, "render", "env.render")
    span(FleetRenderer, "render", "env.render")
    span(NavigationEnv, "advance", "env.physics")
    span(NavigationEnv, "resolve_collision", "env.physics")
    span(FleetCollider, "collisions", "env.physics")

    span(QLearningAgent, "select_action", "agent.act")
    span(QLearningAgent, "act_batch", "agent.act")
    span(QLearningAgent, "observe", "agent.observe")
    span(QLearningAgent, "observe_batch", "agent.observe")
    p.add(QLearningAgent, "train_step_batch", tracer.update_span)
    span(ReplayBuffer, "sample", "replay.sample")

    p.add(Network, "forward", lambda fn: tracer.nn_span("nn.forward", fn, rows))
    p.add(Network, "backward", lambda fn: tracer.nn_span("nn.backward", fn))
    for cls in {type(layer) for layer in network.layers}:
        p.add(cls, "forward", lambda fn: tracer.layer_timer(fn, "fwd_s"))
        p.add(cls, "backward", lambda fn: tracer.layer_timer(fn, "bwd_s"))

    p.add_function(kernels.im2col, tracer.span("systolic.im2col", kernels.im2col))
    for gemm in (kernels.conv2d_gemm, kernels.fc_forward_gemm, kernels.fc_backward_gemm):
        p.add_function(gemm, tracer.span("systolic.gemm", gemm))

    span(QFormat, "to_raw", "fixedpoint.to_raw")
    span(QFormat, "from_raw", "fixedpoint.from_raw")
    span(QFormat, "quantize", "fixedpoint.quantize")

    span(backend_cls, "forward_batch", "backend.forward", rows)
    span(backend_cls, "sync", "backend.sync")
    p.add(SystolicBackend, "forward_layer", tracer.array_layer_span)
    return p
