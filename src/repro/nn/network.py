"""Sequential network container with partial backpropagation.

The paper's central algorithmic knob is training only the last ``i``
layers online (Fig. 3b): backpropagation stops after the last ``i``
*parametric* layers.  :meth:`Network.backward` implements exactly that
with its ``first_trainable`` argument, and
:meth:`Network.trainable_boundary` translates "train the last k FC
layers" into a layer index.  :meth:`Network.forward` can run a slice of
the stack, so the frozen prefix (``stop=first_trainable``) and the
trainable tail (``start=first_trainable``) can be computed separately.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.nn.layers import Layer, Parameter

__all__ = ["Network"]


class Network:
    """An ordered stack of layers with whole- or tail-network training."""

    def __init__(self, layers: list[Layer], name: str = "network"):
        if not layers:
            raise ValueError("a network needs at least one layer")
        self.layers = list(layers)
        self.name = name

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def parameters(self, first_trainable: int = 0) -> list[Parameter]:
        """Parameters of layers at index >= ``first_trainable``."""
        params: list[Parameter] = []
        for layer in self.layers[first_trainable:]:
            params.extend(layer.parameters())
        return params

    def parametric_layers(self) -> list[tuple[int, Layer]]:
        """(index, layer) pairs for layers that own parameters."""
        return [(i, l) for i, l in enumerate(self.layers) if l.parameters()]

    @property
    def weight_count(self) -> int:
        """Total number of trainable scalars in the network."""
        return sum(layer.weight_count for layer in self.layers)

    def trainable_boundary(self, last_k_parametric: int | None) -> int:
        """Layer index such that the last ``k`` parametric layers train.

        ``None`` (or a count >= the number of parametric layers) means
        end-to-end training and returns 0.
        """
        parametric = self.parametric_layers()
        if last_k_parametric is None or last_k_parametric >= len(parametric):
            return 0
        if last_k_parametric <= 0:
            raise ValueError("must train at least one parametric layer")
        return parametric[-last_k_parametric][0]

    def trainable_fraction(self, first_trainable: int) -> float:
        """Fraction of all weights that are trainable at this boundary."""
        total = self.weight_count
        if total == 0:
            raise ValueError("network has no parameters")
        trainable = sum(p.size for p in self.parameters(first_trainable))
        return trainable / total

    # ------------------------------------------------------------------
    # Compute
    # ------------------------------------------------------------------
    def forward(
        self,
        x: np.ndarray,
        training: bool = False,
        start: int = 0,
        stop: int | None = None,
    ) -> np.ndarray:
        """Run layers ``start`` up to (not including) ``stop``.

        The default is the full forward pass.  ``stop=first_trainable``
        gives the activations at the trainable boundary, and
        ``start=first_trainable`` runs the trainable tail from them.
        """
        for layer in self.layers[start:stop]:
            x = layer.forward(x, training=training)
        return x

    def backward(self, grad_out: np.ndarray, first_trainable: int = 0) -> None:
        """Backpropagate ``grad_out`` through layers >= ``first_trainable``.

        Gradient does not flow into the frozen prefix — on the paper's
        platform those weights live in STT-MRAM and are never written
        during flight.
        """
        if not 0 <= first_trainable < len(self.layers):
            raise ValueError(f"first_trainable out of range: {first_trainable}")
        for layer in reversed(self.layers[first_trainable:]):
            grad_out = layer.backward(grad_out)

    def zero_grad(self) -> None:
        """Clear every accumulated parameter gradient."""
        for param in self.parameters():
            param.zero_grad()

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Inference-mode forward pass (no caches kept)."""
        return self.forward(x, training=False)

    # ------------------------------------------------------------------
    # Weight transfer / persistence
    # ------------------------------------------------------------------
    def state_dict(self) -> dict[str, np.ndarray]:
        """Copy of all parameter tensors keyed by parameter name."""
        return {p.name: p.value.copy() for p in self.parameters()}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Load tensors produced by :meth:`state_dict` (strict matching)."""
        params = {p.name: p for p in self.parameters()}
        missing = set(params) - set(state)
        extra = set(state) - set(params)
        if missing or extra:
            raise KeyError(f"state mismatch: missing={sorted(missing)} extra={sorted(extra)}")
        for name, param in params.items():
            value = np.asarray(state[name], dtype=np.float64)
            if value.shape != param.value.shape:
                raise ValueError(
                    f"{name}: shape {value.shape} != expected {param.value.shape}"
                )
            param.value = value.copy()
            param.grad = np.zeros_like(param.value)

    def copy_weights_from(self, other: "Network") -> None:
        """Transfer-learning download: copy all weights from ``other``."""
        self.load_state_dict(other.state_dict())

    def save(self, path: str | Path) -> None:
        """Serialise weights to an ``.npz`` file."""
        np.savez_compressed(Path(path), **self.state_dict())

    def load(self, path: str | Path) -> None:
        """Load weights from an ``.npz`` file written by :meth:`save`."""
        with np.load(Path(path)) as data:
            self.load_state_dict({k: data[k] for k in data.files})

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        inner = ", ".join(layer.name for layer in self.layers)
        return f"Network({self.name}: {inner})"
