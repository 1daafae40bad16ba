"""Experience replay buffer."""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.env.episode import Transition
from repro.obs.probes import PROBE

__all__ = ["ReplayBuffer"]


class ReplayBuffer:
    """Fixed-capacity cyclic buffer of :class:`Transition` tuples.

    Each slot can also keep an *encoding* of its transition: the rows
    that some fixed function (the agent passes its frozen NVM prefix)
    maps ``state`` and ``next_state`` to.  :meth:`sample` with
    ``encode`` computes a slot's pair the first time the slot is drawn
    and serves the stored rows after that.  Overwriting the slot drops
    its rows; :meth:`forget_encodings` drops them all, which the owner
    must call whenever ``encode`` stops being the same function.
    """

    def __init__(self, capacity: int):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._storage: list[Transition] = []
        self._cursor = 0
        # (slots, 2, *row shape): each slot's state and next_state rows,
        # grown geometrically up to capacity as the buffer fills.
        self._codes: np.ndarray | None = None
        self._encoded = np.zeros(capacity, dtype=bool)

    def __len__(self) -> int:
        return len(self._storage)

    @property
    def state_shape(self) -> tuple[int, ...]:
        """Shape of one stored state."""
        return self._storage[0].state.shape

    def push(self, transition: Transition) -> None:
        """Insert a transition, evicting the oldest when full."""
        if len(self._storage) < self.capacity:
            self._encoded[len(self._storage)] = False
            self._storage.append(transition)
        else:
            self._storage[self._cursor] = transition
            self._encoded[self._cursor] = False
            self._cursor = (self._cursor + 1) % self.capacity

    def sample(
        self,
        batch_size: int,
        rng: np.random.Generator,
        encode: Callable[[np.ndarray], np.ndarray] | None = None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Uniformly sample a batch.

        Returns stacked arrays: states (N, ...), actions (N,), rewards
        (N,), next_states (N, ...), dones (N,) as float 0/1.  With
        ``encode``, states and next_states are returned as their
        encodings.  The slots drawn without one go through a single
        ``encode`` call on their stacked states and then next states,
        always at least 2 rows.  The indices drawn from ``rng`` do not
        depend on ``encode``.
        """
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        if len(self._storage) < batch_size:
            raise ValueError(
                f"buffer has {len(self._storage)} transitions, need {batch_size}"
            )
        idx = rng.choice(len(self._storage), size=batch_size, replace=False)
        batch = [self._storage[i] for i in idx]
        actions = np.array([t.action for t in batch], dtype=np.int64)
        rewards = np.array([t.reward for t in batch], dtype=np.float64)
        dones = np.array([float(t.done) for t in batch], dtype=np.float64)
        if encode is None:
            states = np.stack([t.state for t in batch])
            next_states = np.stack([t.next_state for t in batch])
        else:
            states, next_states = self._encodings(idx, encode)
        return states, actions, rewards, next_states, dones

    def _encodings(
        self, idx: np.ndarray, encode: Callable[[np.ndarray], np.ndarray]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Stored (state, next_state) rows of slots ``idx``, filling the
        slots that have none with one ``encode`` call."""
        todo = idx[~self._encoded[idx]]
        if todo.size:
            fresh = [self._storage[i] for i in todo]
            rows = encode(
                np.stack([t.state for t in fresh] + [t.next_state for t in fresh])
            )
            pairs = rows.reshape((2, todo.size) + rows.shape[1:]).swapaxes(0, 1)
            self._reserve(len(self._storage), pairs.shape[1:], rows.dtype)
            self._codes[todo] = pairs
            self._encoded[todo] = True
        if PROBE.enabled:
            help_text = "Frozen-prefix rows served to updates, by where they came from."
            PROBE.count(
                "repro_agent_prefix_rows_total", 2 * todo.size,
                help=help_text, source="computed",
            )
            PROBE.count(
                "repro_agent_prefix_rows_total", 2 * (idx.size - todo.size),
                help=help_text, source="cached",
            )
        return self._codes[idx, 0], self._codes[idx, 1]

    def _reserve(self, slots: int, shape: tuple[int, ...], dtype) -> None:
        """Grow the encoding store to at least ``slots`` slots.

        Growing with the buffer keeps a short run's memory in step with
        the transitions it holds, not with the ring's capacity.
        """
        held = 0 if self._codes is None else len(self._codes)
        if held >= slots:
            return
        grown = np.empty((min(self.capacity, max(slots, 2 * held)),) + shape, dtype)
        if held:
            grown[:held] = self._codes
        self._codes = grown

    def forget_encodings(self) -> None:
        """Drop every slot's encoding."""
        self._encoded[:] = False

    def clear(self) -> None:
        """Drop all stored transitions."""
        self._storage.clear()
        self._cursor = 0
        self.forget_encodings()
