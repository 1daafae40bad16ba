"""Multi-array execution backend: K systolic arrays behind one seam.

The ROADMAP's "serves heavy traffic" direction needs more than one
32x32 array.  :class:`ShardedBackend` composes K child backends
(default :class:`~repro.backend.systolic_backend.SystolicBackend`s,
one per simulated array) behind the ordinary
``forward_batch(states) -> (q_values, cost)`` seam, under two shard
policies:

* ``shard="sample"`` — data parallelism: the observation batch splits
  into K contiguous chunks (:func:`numpy.array_split` semantics, so
  uneven batches work) and each array runs the *whole* network over
  its chunk with a full weight copy.  Only the Q-value gather crosses
  arrays.
* ``shard="layer"`` — tensor parallelism: every array holds ``1/K`` of
  each layer's weights (conv filters / FC output neurons, contiguous
  slices) and computes that slice of the layer's output from the full
  input activation; after every parametric layer the slices gather
  into the full activation, which is re-broadcast to all arrays for
  the next layer.
* ``shard="pipeline"`` — pipeline parallelism: the network's layers
  partition into contiguous *stages*, each stage owned by one or more
  arrays (heterogeneous widths: the stage assignment is balanced on
  the closed-form cycle oracle, and a hot stage may be replicated
  across several arrays, which then take micro-batches round-robin).
  The batch streams through the stages in ``pipeline_chunk``-sized
  micro-batches; the schedule's fill/drain bubbles are charged
  explicitly (``ShardCost.fill_drain_cycles``) and only the
  stage-boundary activations cross arrays — so it keeps scaling where
  the layer policy's per-layer all-gather collapses.  That streaming
  is the *modelled* schedule: the host runs the numerics once, as one
  pass of the shared array datapath, and prices the micro-batch plan
  from the memoised cycle oracle without executing it chunk by chunk.

All policies are **bitwise-equal** to the single-array path when
``quantized=True`` (the default): every sample's and every output
channel's arithmetic is the exact same integer datapath — splitting a
batch or slicing an output dimension removes no term and reorders no
per-element sum — and the re-quantisation between layers is
elementwise, so it commutes with the concatenation that merges shard
outputs.  (``quantized=False`` float numerics agree only to round-off
under sample sharding, because BLAS may re-associate sums for
different batch shapes; the pipeline policy serves one whole-batch
forward, so its float output is bitwise the single array's too.)

Costs come back as a :class:`~repro.backend.base.ShardCost`:
``layer_cycles`` stay *work* (summed over arrays — note each array
charges its own FC tile loads, so sharded work slightly exceeds
single-array work), ``shard_cycles`` are per-array totals,
``critical_path_cycles`` is the wall-clock of the parallel schedule
(max over arrays per parallel region, plus merge traffic), and
``merge_cycles`` charges every element that crosses an inter-array
link (gathers, layer-sharding's re-broadcasts, pipeline stage
hand-offs) on the backend's
:class:`~repro.systolic.noc.NocModel` — the default ``flat`` topology
is exactly the legacy one-cycle-per-element model, while ``ring`` and
``mesh`` pay real hop counts over 128-bit links.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass

import numpy as np

from repro.backend.base import ExecutionBackend, ShardCost, register_backend
from repro.backend.systolic_backend import SystolicBackend
from repro.faults.injector import FAULTS
from repro.obs.probes import PROBE
from repro.fixedpoint.qformat import QFormat, Q2_13, Q8_8
from repro.nn.layers import Conv2D, Dense, MaxPool2D
from repro.nn.network import Network
from repro.parallel.pool import resolve_workers
from repro.systolic.array import ArrayConfig
from repro.systolic.functional import FunctionalSystolicArray
from repro.systolic.noc import NocModel

__all__ = ["ShardedBackend", "SHARD_POLICIES"]

#: Supported shard policies.
SHARD_POLICIES = ("sample", "layer", "pipeline")


def _argmax(cycles: list[int]) -> int:
    """Index of the slowest array (ties toward the lowest index)."""
    if not cycles:
        return 0
    return max(range(len(cycles)), key=cycles.__getitem__)


def _slice_layer(layer, lo: int, hi: int):
    """A copy of ``layer`` holding output slice ``[lo:hi)`` of its weights.

    Conv2D slices the filter axis, Dense the output-feature axis; the
    input dimension stays full because layer sharding broadcasts the
    whole activation to every array.  Weight *values* are placeholders
    until the first :meth:`ShardedBackend.sync` copies the live slice
    in (the model-download broadcast).
    """
    if isinstance(layer, Conv2D):
        sliced = Conv2D(
            layer.in_channels, hi - lo, layer.kernel_size,
            stride=layer.stride, pad=layer.pad, name=layer.name,
        )
    elif isinstance(layer, Dense):
        sliced = Dense(layer.in_features, hi - lo, name=layer.name)
    else:  # pragma: no cover - guarded by the caller
        raise TypeError(f"cannot shard {type(layer).__name__}")
    return sliced


def _copy_slice(src, dst, lo: int, hi: int) -> None:
    """Copy output slice ``[lo:hi)`` of ``src``'s weights into ``dst``."""
    if isinstance(src, Conv2D):
        dst.weight.value[...] = src.weight.value[lo:hi]
    else:
        dst.weight.value[...] = src.weight.value[:, lo:hi]
    dst.bias.value[...] = src.bias.value[lo:hi]


# ----------------------------------------------------------------------
# Pipeline policy: stage partitioning and the chunked schedule
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PipelinePlan:
    """Stage layout of the ``pipeline`` policy over the alive arrays.

    ``param_bounds`` cuts the network's *parametric* layers into
    contiguous stages (``param_bounds[s] : param_bounds[s + 1]``);
    ``layer_ranges`` are the matching index ranges into the full built
    layer list (non-parametric layers ride with the stage of the
    parametric layer they follow).  ``stage_arrays[s]`` lists the
    original array indices serving stage ``s`` — more than one when the
    oracle replicated a hot stage.
    """

    param_bounds: tuple[int, ...]
    layer_ranges: tuple[tuple[int, int], ...]
    stage_arrays: tuple[tuple[int, ...], ...]

    @property
    def stages(self) -> int:
        return len(self.layer_ranges)

    @property
    def widths(self) -> tuple[int, ...]:
        return tuple(len(arrays) for arrays in self.stage_arrays)


def _pipeline_schedule(
    times: list[list[int]], widths: list[int] | tuple[int, ...]
) -> tuple[int, list[list[int]], list[list[int]]]:
    """Makespan of the chunked pipeline schedule.

    ``times[s][m]`` — cycles stage ``s`` spends on micro-batch ``m``;
    ``widths[s]`` — arrays serving stage ``s``.  Chunks enter each
    stage in order; a replicated stage hands each chunk to its
    earliest-free array (ties to the lowest index), so the schedule is
    deterministic.  A chunk starts in stage ``s`` when it has left
    stage ``s - 1`` *and* its array is free.

    Returns ``(critical_cycles, busy, assign)``: the departure cycle of
    the last chunk from the last stage, each stage-array's total busy
    cycles, and ``assign[s][m]`` — which of stage ``s``'s arrays served
    chunk ``m``.  With uniform chunk times and width-1 stages the
    makespan is the textbook ``(chunks + stages - 1) * chunk_cycles``,
    i.e. fill/drain bubbles of exactly ``(stages - 1) * chunk_cycles``
    on top of the bottleneck array's busy time.
    """
    stages = len(times)
    chunks = len(times[0]) if stages else 0
    depart = [0] * chunks  # departure of chunk m from the previous stage
    busy: list[list[int]] = []
    assign: list[list[int]] = []
    for s in range(stages):
        free = [0] * widths[s]
        stage_busy = [0] * widths[s]
        stage_assign = [0] * chunks
        for m in range(chunks):
            a = min(range(widths[s]), key=free.__getitem__)
            start = max(depart[m], free[a])
            depart[m] = start + times[s][m]
            free[a] = depart[m]
            stage_busy[a] += times[s][m]
            stage_assign[m] = a
        busy.append(stage_busy)
        assign.append(stage_assign)
    critical = max(depart) if chunks else 0
    return critical, busy, assign


def _pipeline_stage_search(
    layer_cycles: list[int], shards: int, num_chunks: int
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Best contiguous stage partition of the parametric layers.

    Enumerates contiguous partitions of the per-layer cycle oracle
    (measured at one micro-batch) into ``S <= shards`` stages,
    allocates the K arrays to stages greedily (each extra array goes to
    the stage with the highest per-array load — heterogeneous widths),
    and scores each candidate with the actual chunked schedule.  A
    pipeline partitions the *model*: with ``shards >= 2`` and at least
    two parametric layers, single-stage layouts (full weight
    replication, i.e. plain data parallelism) are excluded.

    Returns ``(param_bounds, widths)``.
    """
    count = len(layer_cycles)
    if count == 0 or shards <= 0:
        raise ValueError("need at least one parametric layer and one array")
    min_stages = min(2, shards, count)
    best: tuple[int, tuple[int, ...], tuple[int, ...]] | None = None
    if count - 1 <= 12:
        masks = range(1 << (count - 1))
    else:
        # Wide networks: fall back to cycle-balanced cuts, one
        # candidate per stage count.
        masks = []
        total = sum(layer_cycles)
        for stage_count in range(min_stages, min(shards, count) + 1):
            mask, acc, cut = 0, 0, 1
            for i in range(count - 1):
                acc += layer_cycles[i]
                if acc >= total * cut / stage_count:
                    mask |= 1 << i
                    cut += 1
            masks.append(mask)
    for mask in masks:
        bounds = [0]
        bounds.extend(i + 1 for i in range(count - 1) if mask >> i & 1)
        bounds.append(count)
        stage_count = len(bounds) - 1
        if not min_stages <= stage_count <= shards:
            continue
        stage_cycles = [
            sum(layer_cycles[lo:hi])
            for lo, hi in zip(bounds, bounds[1:])
        ]
        widths = [1] * stage_count
        for _ in range(shards - stage_count):
            hottest = max(
                range(stage_count),
                key=lambda s: stage_cycles[s] / widths[s],
            )
            widths[hottest] += 1
        critical, _busy, _assign = _pipeline_schedule(
            [[stage_cycles[s]] * num_chunks for s in range(stage_count)],
            widths,
        )
        key = (critical, tuple(bounds), tuple(widths))
        if best is None or key < best:
            best = key
    if best is None:  # pragma: no cover - guarded by min_stages <= count
        raise ValueError("no feasible stage partition")
    return best[1], best[2]


def _parametric_input_elements(
    network: Network, state_shape: tuple[int, ...]
) -> list[int]:
    """Per-row element count of each parametric layer's input tensor.

    Walks the built layer stack tracking the activation shape from
    ``state_shape`` (C, H, W) — the tensor that crosses an inter-array
    link when a stage or slice boundary sits just before that layer.
    """
    c, h, w = (int(v) for v in state_shape)
    elements: list[int] = []
    for layer in network.layers:
        if isinstance(layer, Conv2D):
            elements.append(c * h * w)
            c, h, w = layer.output_shape(h, w)
        elif isinstance(layer, MaxPool2D):
            h, w = layer.output_shape(h, w)
        elif isinstance(layer, Dense):
            elements.append(layer.in_features)
        # ReLU / norm / flatten: no shape change that matters here
        # (flatten keeps c*h*w, which is what Dense.in_features reads).
    return elements


@register_backend("sharded")
class ShardedBackend(ExecutionBackend):
    """K simulated systolic arrays composed behind one backend.

    Parameters
    ----------
    network:
        The trained float network (single source of weights).
    shards:
        Number of arrays K (>= 1).
    shard:
        One of :data:`SHARD_POLICIES`: ``"sample"`` (split the batch),
        ``"layer"`` (split conv filters / FC output neurons) or
        ``"pipeline"`` (partition the layers into stages).
    config / fidelity / quantized / weight_format / activation_format:
        Passed through to every child :class:`SystolicBackend` — each
        array runs the same datapath the single-array backend models.
    noc:
        Inter-array interconnect topology — one of
        :data:`~repro.systolic.noc.NOC_TOPOLOGIES`.  ``"flat"``
        (default) is the legacy 1-cycle-per-element single-hop model,
        so every pinned sharding number reproduces unchanged;
        ``"ring"`` / ``"mesh"`` charge real hop counts over 128-bit
        links at the quantised word width.
    pipeline_chunk:
        Micro-batch rows per pipeline stage hand-off in the modelled
        schedule (pipeline policy only; the numerics run once).
        ``None`` picks ``max(1, batch // (8 * K))`` — about 8 chunks
        per array, enough overlap to amortise fill/drain without
        drowning in per-chunk filter reloads.
    workers:
        Host process-pool size for sample-policy child forwards
        (``"auto"`` = one per CPU, capped at K).  ``1`` (default) is
        the serial path, byte-for-byte today's behaviour.  Parallel
        dispatch sends the *same* chunks to the same pure child code
        in pool workers and replays the accounting in shard order, so
        results and cost records are bitwise identical at any worker
        count.  The layer policy always runs serially — its layers
        chain through a gather/broadcast data dependency, so there is
        no host-side parallelism to harvest.
    """

    def __init__(
        self,
        network: Network,
        shards: int = 2,
        shard: str = "sample",
        config: ArrayConfig | None = None,
        fidelity: str = "fast",
        quantized: bool = True,
        weight_format: QFormat = Q2_13,
        activation_format: QFormat = Q8_8,
        workers: int | str = 1,
        noc: str = "flat",
        pipeline_chunk: int | None = None,
    ):
        if shards <= 0:
            raise ValueError("shards must be positive")
        if shard not in SHARD_POLICIES:
            raise ValueError(
                f"unknown shard policy {shard!r}; expected one of {SHARD_POLICIES}"
            )
        if pipeline_chunk is not None and pipeline_chunk <= 0:
            raise ValueError("pipeline_chunk must be positive")
        self.network = network
        self.shards = shards
        self.shard = shard
        self.fidelity = fidelity
        self.quantized = quantized
        self.activation_format = activation_format
        self.noc = noc
        self.pipeline_chunk = pipeline_chunk
        # Validates the topology name; node ids are *original* array
        # indices, so transfers stay well-defined after failover.
        self._noc = NocModel(
            topology=noc, nodes=shards,
            word_bits=activation_format.total_bits,
        )
        child_kwargs = dict(
            config=config, fidelity=fidelity, quantized=quantized,
            weight_format=weight_format, activation_format=activation_format,
        )
        self._child_kwargs = child_kwargs
        #: Child position -> original array index (identity until a
        #: crash failover rebuilds the layer plan over the survivors).
        self._position_to_shard = list(range(shards))
        #: Lazily built float fallback for all-arrays-lost degradation.
        self._fallback = None
        self._chaos_forward = 0
        self.workers = resolve_workers(workers, tasks=shards)
        #: Bumped whenever the serving weights change (sync, chaos bit
        #: flips, buffer restore); the pool executor ships weight deltas
        #: to workers only when its shipped version falls behind.
        self._weights_version = 0
        self._executor = None
        #: Pipeline stage layouts, keyed on (alive arrays, state shape,
        #: chunk rows, chunk count); cleared on crash failover.
        self._pipeline_plans: dict[tuple, PipelinePlan] = {}
        if shard != "layer":
            # Sample and pipeline policies: every array downloads the
            # full model.  All K copies are byte-identical, so one
            # simulated child stands in for every array (the simulation
            # quantises once per sync, not K times) — the K entries are
            # the same object, indexed per-array for the forward loop.
            self.children = [SystolicBackend(network, **child_kwargs)] * shards
            self._plan = None
        else:
            self._plan = self._build_layer_plan(network, shards)
            self.children = [
                SystolicBackend(net, **child_kwargs)
                for net in self._shard_networks
            ]
            self.sync()
        self.config = self.children[0].config

    # ------------------------------------------------------------------
    def _build_layer_plan(self, network: Network, shards: int):
        """Per-layer shard assignments for the ``layer`` policy.

        Returns ``{layer_index: [(array, sliced_layer, lo, hi), ...]}``
        covering every parametric layer, and stores one sliced
        sub-network per array (arrays left idle by a layer narrower
        than K simply get no slice of it).
        """
        plan: dict[int, list[tuple[int, object, int, int]]] = {}
        per_array_layers: list[list] = [[] for _ in range(shards)]
        for index, layer in network.parametric_layers():
            width = (
                layer.out_channels
                if isinstance(layer, Conv2D)
                else layer.out_features
            )
            bounds = np.linspace(0, width, shards + 1).astype(int)
            assignments = []
            for k in range(shards):
                lo, hi = int(bounds[k]), int(bounds[k + 1])
                if hi <= lo:
                    continue  # layer narrower than K: array k sits idle
                sliced = _slice_layer(layer, lo, hi)
                assignments.append((k, sliced, lo, hi))
                per_array_layers[k].append(sliced)
            plan[index] = assignments
        self._shard_networks = [
            Network(layers or [Dense(1, 1, name=f"idle{k}")],
                    name=f"{network.name}.shard{k}")
            for k, layers in enumerate(per_array_layers)
        ]
        return plan

    def sync(self) -> None:
        """Broadcast the live float weights to every array's datapath.

        Sample and pipeline sharding re-quantise the full weight set
        once — the per-array copies are byte-identical, so the children
        share the quantised operands.  Layer sharding copies each
        array's slice out of the live network first (the sliced
        sub-networks own their parameters), then re-quantises it.
        """
        self._weights_version += 1
        if self.shard != "layer":
            self.children[0].sync()
            return
        for index, assignments in self._plan.items():
            layer = self.network.layers[index]
            for _k, sliced, lo, hi in assignments:
                _copy_slice(layer, sliced, lo, hi)
        for child in self.children:
            child.sync()

    # ------------------------------------------------------------------
    # Serving-buffer seam (fault injection / detection)
    # ------------------------------------------------------------------
    @property
    def weight_format(self):
        return self.children[0].weight_format

    def weight_buffers(self) -> dict[str, np.ndarray]:
        """The children's serving buffers (prefixed per array for layer
        sharding; sample/pipeline arrays share one physical copy)."""
        if self.shard != "layer":
            return self.children[0].weight_buffers()
        merged: dict[str, np.ndarray] = {}
        for k, child in enumerate(self.children):
            for name, arr in child.weight_buffers().items():
                merged[f"shard{k}/{name}"] = arr
        return merged

    def corrupt_weight_bit(self, name: str, index: int, bit: int) -> None:
        self._weights_version += 1
        if self.shard != "layer":
            self.children[0].corrupt_weight_bit(name, index, bit)
            return
        prefix, _, rest = name.partition("/")
        self.children[int(prefix[len("shard"):])].corrupt_weight_bit(
            rest, index, bit
        )

    def _refresh_weight_values(self) -> None:
        self._weights_version += 1
        if self.shard != "layer":
            self.children[0]._refresh_weight_values()
            return
        for child in self.children:
            child._refresh_weight_values()

    # ------------------------------------------------------------------
    # Fault handling (FAULTS seam active only)
    # ------------------------------------------------------------------
    def _active_shards(self) -> list[int]:
        """Alive array indices, processing any newly due crash faults."""
        if not FAULTS.enabled:
            return list(range(self.shards))
        inj = FAULTS.injector
        for k in inj.due_crashes():
            if k < self.shards:
                self._kill_shard(k, inj)
        return [k for k in range(self.shards) if k not in inj.dead_shards]

    def _kill_shard(self, k: int, inj) -> None:
        """Process one scheduled crash: detect, then fail over.

        Detection is the per-shard health check — the scheduler notices
        the array stopped answering after ``health_check_timeout_cycles``
        (charged as recovery overhead).  Recovery remaps the dead
        array's work onto the survivors: sample sharding just re-splits
        the batch; layer sharding rebuilds the slice plan over the
        surviving arrays and re-broadcasts the weights.  With no
        survivors the backend degrades to the float numpy fallback.
        """
        inj.kill(k)
        rec = inj.record("shard.crash", target=f"shard{k}", detail="scheduled")
        inj.add_recovery_cycles(inj.plan.health_check_timeout_cycles)
        inj.mark_detected(rec)
        alive = [i for i in range(self.shards) if i not in inj.dead_shards]
        with PROBE.span("recovery", kind="shard.failover", shard=k):
            if not alive:
                degraded = inj.record(
                    "fleet.degraded",
                    target=self.name,
                    detail="all arrays lost",
                )
                inj.mark_detected(degraded)
                inj.mark_recovered(degraded, detail="serving from numpy fallback")
            elif self.shard == "layer":
                self._rebuild_layer_shards(alive)
            elif self.shard == "pipeline":
                # Stage plans are keyed on the surviving arrays — drop
                # them so the next forward re-partitions the stages.
                self._pipeline_plans.clear()
        inj.mark_recovered(
            rec,
            detail=(
                "degraded to numpy fallback"
                if not alive
                else f"failover onto {len(alive)} surviving arrays"
            ),
        )

    def _rebuild_layer_shards(self, alive: list[int]) -> None:
        """Re-slice every layer across the surviving arrays."""
        self._plan = self._build_layer_plan(self.network, len(alive))
        self.children = [
            SystolicBackend(net, **self._child_kwargs)
            for net in self._shard_networks
        ]
        self._position_to_shard = list(alive)
        self.sync()

    def _forward_degraded(self, x: np.ndarray) -> tuple[np.ndarray, ShardCost]:
        """All arrays lost: float inference on the host, zero array cost."""
        if self._fallback is None:
            from repro.backend.numpy_backend import NumpyBackend

            self._fallback = NumpyBackend(self.network)
        with PROBE.span("shard.forward", shard=-1, states=x.shape[0]) as sp:
            q_values, _ = self._fallback.forward_batch(x)
            sp.add_cycles(0)
        FAULTS.injector.note_degraded(x.shape[0])
        return q_values, ShardCost(
            backend=self.name, states=x.shape[0], macs=0, layer_cycles={},
            shards=self.shards, shard_cycles=(0,) * self.shards,
            critical_path_cycles=0, merge_cycles=0, critical_shard_index=0,
            noc=self.noc,
        )

    def _chaos_extra(self, shard: int, base_cycles: int) -> int:
        """Extra cycles this forward charges shard ``shard`` for faults.

        Transient faults retry with exponential backoff (each failed
        attempt re-burns the shard's forward plus a timeout); stragglers
        multiply the (possibly retried) total.  Both are detected and
        recovered within the same forward — they stretch the critical
        path rather than corrupting output.
        """
        inj = FAULTS.injector
        plan = inj.plan
        extra = 0
        attempts = inj.transient_attempts(self._chaos_forward, shard)
        if attempts:
            retry = 0
            for attempt in range(attempts):
                retry += base_cycles + int(
                    plan.retry_timeout_cycles * plan.retry_backoff ** attempt
                )
            rec = inj.record(
                "shard.transient",
                target=f"shard{shard}",
                detail=f"failed attempts={attempts}",
            )
            inj.mark_detected(rec)
            inj.mark_recovered(rec, detail=f"retry succeeded after {attempts}")
            inj.add_recovery_cycles(retry)
            extra += retry
        factor = inj.straggler_factor(self._chaos_forward, shard)
        if factor > 1.0:
            slow = int((base_cycles + extra) * (factor - 1.0))
            rec = inj.record(
                "shard.straggler",
                target=f"shard{shard}",
                detail=f"factor={factor:g}",
            )
            inj.mark_detected(rec)
            inj.mark_recovered(rec, detail="absorbed by the schedule")
            extra += slow
        return extra

    # ------------------------------------------------------------------
    def train_cost(
        self,
        batch_size: int,
        state_shape: tuple[int, ...],
        first_trainable: int = 0,
    ) -> ShardCost:
        """One training step across the K arrays, per shard policy.

        * ``sample`` — data parallel: the batch splits into K chunks,
          every array runs forward + backward GEMMs against a full
          weight copy, and the per-array weight gradients all-reduce to
          the root array over the NoC.
        * ``layer`` — model parallel: each array trains only its weight
          slice, so dW stays local (no full-gradient all-reduce — the
          old silent fall-back to the data-parallel split is gone);
          the backward pays a partial-dX reduction per layer instead.
        * ``pipeline`` — pipelined: micro-batches stream forward and
          backward through the stages; fill/drain bubbles are charged
          explicitly and boundary activations (and their gradients)
          cross the NoC.
        """
        alive = (
            [k for k in range(self.shards) if k not in FAULTS.injector.dead_shards]
            if FAULTS.enabled
            else list(range(self.shards))
        )
        if not alive:
            # Every array lost: training stays in host float, charging
            # the (gone) arrays nothing.
            return ShardCost(
                backend=self.name, states=batch_size,
                shards=self.shards, shard_cycles=(0,) * self.shards,
                noc=self.noc,
            )
        if self.shard == "layer":
            return self._train_cost_layer(batch_size, state_shape, first_trainable)
        if self.shard == "pipeline":
            return self._price_pipeline(
                batch_size, state_shape, first_trainable, alive
            )
        return self._train_cost_sample(
            batch_size, state_shape, first_trainable, alive
        )

    def _ship(self, elements: int, src: int, dst: int) -> tuple[int, int]:
        """NoC (cycles, element-hops) of one inter-array transfer."""
        return (
            self._noc.transfer_cycles(elements, src, dst),
            self._noc.element_hops(elements, src, dst),
        )

    def _train_cost_sample(
        self,
        batch_size: int,
        state_shape: tuple[int, ...],
        first_trainable: int,
        alive: list[int],
    ) -> ShardCost:
        """Data-parallel training: chunked batch, gradient all-reduce."""
        from repro.systolic.training import network_training_step_cost

        sizes = [
            len(chunk)
            for chunk in np.array_split(np.arange(batch_size), len(alive))
        ]
        shard_cycles = [0] * self.shards
        layer_cycles: dict[str, int] = {}
        macs = 0
        contributors = []
        for k, size in zip(alive, sizes):
            if size == 0:
                continue  # batch narrower than K: array k sits idle
            contributors.append(k)
            step = network_training_step_cost(
                self.network, state_shape, size,
                config=self.config, first_trainable=first_trainable,
            )
            shard_cycles[k] = step.total_cycles
            macs += step.total_macs
            for layer in step.layers:
                name = layer.name
                layer_cycles[name] = layer_cycles.get(name, 0) + layer.total_cycles
        grad_elements = sum(p.size for p in self.network.parameters(first_trainable))
        merge = 0
        merge_hops = 0
        root = contributors[0] if contributors else alive[0]
        for k in contributors[1:]:
            # Each non-root array ships its full weight gradient to the
            # root (flat NoC: one cycle per element — the legacy charge).
            cycles, hops = self._ship(grad_elements, k, root)
            merge += cycles
            merge_hops += hops
        critical = max(shard_cycles) + merge
        return ShardCost(
            backend=self.name, states=batch_size, macs=macs,
            layer_cycles=layer_cycles, shards=self.shards,
            shard_cycles=tuple(shard_cycles),
            critical_path_cycles=critical, merge_cycles=merge,
            critical_shard_index=_argmax(shard_cycles),
            merge_hops=merge_hops, noc=self.noc,
        )

    def _train_cost_layer(
        self,
        batch_size: int,
        state_shape: tuple[int, ...],
        first_trainable: int,
    ) -> ShardCost:
        """Model-parallel training for the ``layer`` policy.

        Each array runs the forward + backward GEMMs of *its output
        slice only* — dW is an outer product over the slice's rows, so
        weight gradients never leave the array that applies them.  What
        crosses the NoC instead:

        * the forward broadcast/gather of each layer's activations
          (the same charges sharded inference pays),
        * per trainable layer, a partial-dX reduction: every non-hub
          array ships its partial input-gradient (full input shape) to
          the layer's hub, which sums them and forwards the result to
          the arrays of the previous parametric layer — skipped when no
          trainable layer sits below, exactly where backprop stops.

        Cycles come from the same closed-form per-layer oracle the
        data-parallel path uses, evaluated on each slice's width, so
        the layer-sliced bill is consistent with the whole-layer one.
        """
        from repro.systolic.training import _conv_layer_cost, _fc_layer_cost

        c, h, w = (int(v) for v in state_shape)
        shard_cycles = [0] * self.shards
        layer_cycles: dict[str, int] = {}
        macs = 0
        merge = 0
        merge_hops = 0
        critical = 0
        hub_orig: int | None = None  # array holding the merged activation
        prev_param: tuple[int, list[int]] | None = None

        def ship(elements: int, src: int, dst: int) -> None:
            nonlocal merge, merge_hops
            cycles, hops = self._ship(elements, src, dst)
            merge += cycles
            merge_hops += hops

        for index, layer in enumerate(self.network.layers):
            assignments = self._plan.get(index)
            if not assignments:
                if isinstance(layer, MaxPool2D):
                    h, w = layer.output_shape(h, w)
                continue
            trainable = index >= first_trainable
            consumers = [self._position_to_shard[k] for k, *_rest in assignments]
            is_conv = isinstance(layer, Conv2D)
            act_in = batch_size * (c * h * w if is_conv else layer.in_features)
            if hub_orig is not None:
                # Forward: broadcast the merged activation to the other
                # arrays computing this layer (inference's charge).
                for dst in consumers:
                    if dst != hub_orig:
                        ship(act_in, hub_orig, dst)
            if is_conv:
                oh = (h + 2 * layer.pad - layer.kernel_size) // layer.stride + 1
                ow = (w + 2 * layer.pad - layer.kernel_size) // layer.stride + 1
                per_unit = oh * ow
            else:
                per_unit = 1
            slice_cycles = []
            for k, _sliced, lo, hi in assignments:
                orig = self._position_to_shard[k]
                if is_conv:
                    cost, _shape = _conv_layer_cost(
                        layer.name, c, h, w, hi - lo, layer.kernel_size,
                        layer.stride, layer.pad, batch_size, self.config,
                        trainable,
                    )
                else:
                    cost = _fc_layer_cost(
                        layer.name, layer.in_features, hi - lo, batch_size,
                        self.config, trainable,
                    )
                shard_cycles[orig] += cost.total_cycles
                slice_cycles.append(cost.total_cycles)
                macs += cost.total_macs
                name = layer.name
                layer_cycles[name] = layer_cycles.get(name, 0) + cost.total_cycles
            critical += max(slice_cycles)
            new_hub = self._position_to_shard[assignments[0][0]]
            # Forward: gather the output slices to the layer's hub.
            for k, _sliced, lo, hi in assignments:
                orig = self._position_to_shard[k]
                if orig != new_hub:
                    ship(batch_size * (hi - lo) * per_unit, orig, new_hub)
            # Backward: partial-dX reduction, only while gradient still
            # flows to a trainable layer below this one.
            if (
                trainable
                and prev_param is not None
                and prev_param[0] >= first_trainable
            ):
                for orig in consumers:
                    if orig != new_hub:
                        ship(act_in, orig, new_hub)
                for dst in prev_param[1]:
                    if dst != new_hub:
                        ship(act_in, new_hub, dst)
            if is_conv:
                c, h, w = layer.out_channels, oh, ow
            hub_orig = new_hub
            prev_param = (index, consumers)
        critical += merge
        return ShardCost(
            backend=self.name, states=batch_size, macs=macs,
            layer_cycles=layer_cycles, shards=self.shards,
            shard_cycles=tuple(shard_cycles),
            critical_path_cycles=critical, merge_cycles=merge,
            critical_shard_index=_argmax(shard_cycles),
            merge_hops=merge_hops, noc=self.noc,
        )

    def _requantize(self, x: np.ndarray) -> np.ndarray:
        return self.activation_format.quantize(x) if self.quantized else x

    def _shard_executor(self):
        """The pool executor for sample-policy forwards, built on first
        parallel dispatch (workers spawn only when actually used)."""
        if self._executor is None:
            from repro.parallel.dispatch import ShardExecutor

            self._executor = ShardExecutor(self, self.workers)
        return self._executor

    def forward_batch(self, states: np.ndarray) -> tuple[np.ndarray, ShardCost]:
        x = np.asarray(states, dtype=np.float64)
        if x.ndim != 4:
            raise ValueError(f"expected an (N, C, H, W) state batch, got {x.shape}")
        if FAULTS.enabled:
            self._chaos_forward = FAULTS.injector.note_forward()
        if self.shard == "sample":
            return self._forward_sample(x)
        if self.shard == "pipeline":
            return self._forward_pipeline(x)
        return self._forward_layer_sharded(x)

    def _forward_sample(self, x: np.ndarray) -> tuple[np.ndarray, ShardCost]:
        """Each array runs the whole network over its batch chunk.

        The batch splits over the *surviving* arrays — after a crash
        failover the same work re-splits onto fewer chunks, so each
        survivor's chunk (and cycle bill) grows by ~K/(K-1).  With every
        array alive the split is exactly the original one.
        """
        n = x.shape[0]
        active = self._active_shards()
        if not active:
            return self._forward_degraded(x)
        chunks = np.array_split(x, len(active))
        jobs = [
            (k, chunk)
            for k, chunk in zip(active, chunks)
            if chunk.shape[0] > 0  # batch narrower than K: array k idles
        ]
        if self.workers > 1 and len(jobs) > 1:
            # Parallel path: pure child forwards run in pool workers
            # (PROBE/FAULTS permanently off there); the workers time
            # themselves and the spans/chaos accounting replay below in
            # shard order, so both the numerics and every ledger match
            # the serial loop bitwise.
            results = self._shard_executor().forward_chunks(
                [chunk for _k, chunk in jobs]
            )
            forwards = [
                (k, chunk, q_k, cost_k, wall_ns, worker)
                for (k, chunk), (q_k, cost_k, wall_ns, worker)
                in zip(jobs, results)
            ]
        else:
            forwards = []
            for k, chunk in jobs:
                start = time.perf_counter_ns()
                q_k, cost_k = self.children[k].forward_batch(chunk)
                forwards.append(
                    (k, chunk, q_k, cost_k,
                     time.perf_counter_ns() - start, None)
                )
        outputs = []
        shard_cycles = [0] * self.shards
        layer_cycles: dict[str, int] = {}
        macs = 0
        merge = 0
        merge_hops = 0
        root = active[0]
        for k, chunk, q_k, cost_k, wall_ns, worker in forwards:
            PROBE.record_span(
                "shard.forward", wall_ns, cycles=cost_k.total_cycles,
                worker=worker, shard=k, states=chunk.shape[0],
            )
            outputs.append(q_k)
            cycles_k = cost_k.total_cycles
            if FAULTS.enabled:
                cycles_k += self._chaos_extra(k, cycles_k)
            shard_cycles[k] = cycles_k
            macs += cost_k.macs
            for name, cycles in cost_k.layer_cycles.items():
                layer_cycles[name] = layer_cycles.get(name, 0) + cycles
            if k != root:
                # Gathering array k's Q rows to the root array over the
                # NoC (flat: one element per link cycle, the legacy
                # charge; the root's rows stay put).
                cycles, hops = self._ship(q_k.size, k, root)
                merge += cycles
                merge_hops += hops
        q_values = np.concatenate(outputs, axis=0)
        critical = max(shard_cycles) + merge
        return q_values, ShardCost(
            backend=self.name, states=n, macs=macs, layer_cycles=layer_cycles,
            shards=self.shards, shard_cycles=tuple(shard_cycles),
            critical_path_cycles=critical, merge_cycles=merge,
            critical_shard_index=_argmax(shard_cycles),
            merge_hops=merge_hops, noc=self.noc,
        )

    def _forward_layer_sharded(self, x: np.ndarray) -> tuple[np.ndarray, ShardCost]:
        """Every array computes its output slice of each layer.

        Layers execute in sequence (true data dependency); within a
        layer the K slices run in parallel, so the layer contributes
        its *slowest* slice to the critical path.  After each
        parametric layer the slices gather to a hub array — the first
        array assigned to the layer — into the full activation
        (concatenation along the channel/feature axis reproduces the
        original output order — slices are contiguous); elementwise /
        pooling layers run there.  When the next parametric layer is
        reached, the activation it consumes — post-pooling, so the
        tensor that actually moves — is broadcast from the hub to the
        *other* arrays assigned to it (nothing after the last layer:
        the Q values are already gathered; nothing for the first, whose
        input arrives from the host).  Both transfers price each moved
        element on the NoC model — per *receiving* array for the
        broadcast (each non-hub consumer's link carries the whole
        activation; the hub itself never pays), per *sending* array for
        the gather — so the flat topology reproduces the legacy
        one-cycle-per-element charge exactly.
        """
        n = x.shape[0]
        if FAULTS.enabled and not self._active_shards():
            return self._forward_degraded(x)
        x = self._requantize(x)
        shard_cycles = [0] * self.shards
        layer_cycles: dict[str, int] = {}
        macs = 0
        merge = 0
        merge_hops = 0
        critical = 0
        hub: int | None = None
        pe_sim = (
            FunctionalSystolicArray(self.config, fidelity="pe")
            if self.fidelity == "pe"
            else None
        )

        def charge(name: str, cycles: int) -> None:
            while name in layer_cycles:
                name += "'"
            layer_cycles[name] = cycles

        for index, layer in enumerate(self.network.layers):
            assignments = self._plan.get(index)
            if not assignments:
                # ReLU / pooling / flatten run on the merged activation
                # (vector units / comparators) — no MAC cycles, exactly
                # as on the single-array path.
                x = layer.forward(x, training=False)
            else:
                if hub is not None:
                    # Broadcast the hub's activation to every *other*
                    # array computing this layer — one full-activation
                    # transfer per non-hub consumer, none when the hub
                    # consumes its own copy (so a layer feeding several
                    # arrays charges each link once, no double count).
                    hub_orig = self._position_to_shard[hub]
                    for k in sorted({k for k, *_rest in assignments} - {hub}):
                        cycles, hops = self._ship(
                            x.size, hub_orig, self._position_to_shard[k]
                        )
                        merge += cycles
                        merge_hops += hops
                parts = []
                slice_cycles = []
                work = 0
                for k, sliced, _lo, _hi in assignments:
                    orig = self._position_to_shard[k]
                    with PROBE.span(
                        "shard.forward", shard=orig, layer=layer.name
                    ) as sp:
                        out_k, cycles_k, macs_k = self.children[k].forward_layer(
                            sliced, x, pe_sim
                        )
                        sp.add_cycles(cycles_k)
                    parts.append(out_k)
                    shard_cycles[orig] += cycles_k
                    slice_cycles.append(cycles_k)
                    work += cycles_k
                    macs += macs_k
                x = np.concatenate(parts, axis=1)
                charge(layer.name, work)
                # Gather every non-hub slice into the full activation.
                hub = assignments[0][0]
                hub_orig = self._position_to_shard[hub]
                for (k, *_rest), part in zip(assignments[1:], parts[1:]):
                    cycles, hops = self._ship(
                        part.size, self._position_to_shard[k], hub_orig
                    )
                    merge += cycles
                    merge_hops += hops
                critical += max(slice_cycles)
            x = self._requantize(x)
        critical += merge
        if FAULTS.enabled:
            # Transient retries and stragglers stretch each array's
            # per-layer slices; charged conservatively to the critical
            # path (every layer barrier waits on its slowest slice).
            for orig in self._position_to_shard:
                if shard_cycles[orig] == 0:
                    continue
                extra = self._chaos_extra(orig, shard_cycles[orig])
                shard_cycles[orig] += extra
                critical += extra
        return x, ShardCost(
            backend=self.name, states=n, macs=macs, layer_cycles=layer_cycles,
            shards=self.shards, shard_cycles=tuple(shard_cycles),
            critical_path_cycles=critical, merge_cycles=merge,
            critical_shard_index=_argmax(shard_cycles),
            merge_hops=merge_hops, noc=self.noc,
        )

    # ------------------------------------------------------------------
    # Pipeline policy
    # ------------------------------------------------------------------
    def _resolve_pipeline_chunk(self, n: int, arrays: int) -> int:
        """Micro-batch rows per pipeline chunk for an ``n``-row batch."""
        if self.pipeline_chunk is not None:
            return self.pipeline_chunk
        return max(1, n // (8 * arrays))

    def _pipeline_plan(
        self,
        alive: tuple[int, ...],
        state_shape: tuple[int, ...],
        chunk_rows: int,
        num_chunks: int,
    ) -> PipelinePlan:
        """The (cached) stage layout over the surviving arrays.

        Stage bounds and widths come from the closed-form per-layer
        cycle oracle at the micro-batch size — it matches the measured
        ``forward_layer`` cycles exactly, so no probe forwards run —
        scored against the actual chunked schedule.
        """
        key = (alive, tuple(int(v) for v in state_shape), chunk_rows, num_chunks)
        plan = self._pipeline_plans.get(key)
        if plan is not None:
            return plan
        from repro.systolic.training import network_training_step_cost

        step = network_training_step_cost(
            self.network, state_shape, chunk_rows,
            config=self.config,
            first_trainable=len(self.network.layers),  # forward only
        )
        bounds, widths = _pipeline_stage_search(
            [cost.forward_cycles for cost in step.layers],
            len(alive), num_chunks,
        )
        param_indices = [i for i, _layer in self.network.parametric_layers()]
        # Each stage starts at its first parametric layer (stage 0 also
        # owns any leading non-parametric layers) and runs to the next
        # stage's start; trailing layers ride with the last stage.
        starts = [0] + [param_indices[b] for b in bounds[1:-1]]
        ends = starts[1:] + [len(self.network.layers)]
        stage_arrays = []
        pos = 0
        for width in widths:
            stage_arrays.append(tuple(alive[pos:pos + width]))
            pos += width
        plan = PipelinePlan(
            param_bounds=tuple(bounds),
            layer_ranges=tuple(zip(starts, ends)),
            stage_arrays=tuple(stage_arrays),
        )
        self._pipeline_plans[key] = plan
        return plan

    def _forward_pipeline(self, x: np.ndarray) -> tuple[np.ndarray, ShardCost]:
        """One executor pass for the numerics, then the priced schedule.

        Every stage array holds a byte-identical weight copy, so the
        shared child runs the whole batch once: exact-integer
        arithmetic and the elementwise re-quantisation after every
        layer make that bitwise what streaming each micro-batch through
        each stage would compute.  Micro-batch streaming is the
        *modelled* schedule — :meth:`_price_pipeline` charges it from
        the cycle oracle: per-array busy cycles, the fill/drain bubbles
        the schedule cannot hide (``fill_drain_cycles``) and NoC
        transfer cycles for every stage-boundary hand-off plus the
        final Q gather.  The ``shard.forward`` span times the one host
        pass and carries the critical-path cycles; per-array cycles
        stay in ``ShardCost.shard_cycles``.
        """
        active = self._active_shards()
        if not active:
            return self._forward_degraded(x)
        start = time.perf_counter_ns()
        q_values, _ = self.children[0].forward_batch(x)
        wall_ns = time.perf_counter_ns() - start
        cost = self._price_pipeline(
            x.shape[0], x.shape[1:], len(self.network.layers), active,
            q_width=int(np.prod(q_values.shape[1:])), chaos=FAULTS.enabled,
        )
        PROBE.record_span(
            "shard.forward", wall_ns, cycles=cost.critical_path_cycles,
            states=x.shape[0],
        )
        return q_values, cost

    def _price_pipeline(
        self,
        batch_size: int,
        state_shape: tuple[int, ...],
        first_trainable: int,
        alive: list[int],
        q_width: int = 0,
        chaos: bool = False,
    ) -> ShardCost:
        """Price micro-batches streaming through the stages — no numerics.

        Shared by inference (``first_trainable == len(network.layers)``:
        forward cycles only) and training.  Each stage's per-chunk time
        is its layers' forward (+ backward) GEMM cycles from the
        memoised closed-form oracle at that chunk's rows; the chunked
        schedule yields the makespan, per-array busy cycles and
        fill/drain bubbles.  Stage-boundary activations cross the NoC
        once forward and — while a trainable layer sits below the
        boundary — once more backward as the dX gradient; replicated
        (width > 1) stages all-reduce their trainable weight gradients
        within the stage (nothing when every layer is frozen).
        ``q_width`` > 0 gathers that many Q values per row from the
        last stage's replicas to its first array; ``chaos`` charges the
        FAULTS transient/straggler extras.
        """
        from repro.systolic.training import network_training_step_cost

        state_shape = tuple(int(v) for v in state_shape)
        chunk_rows = self._resolve_pipeline_chunk(batch_size, len(alive))
        num_chunks = max(1, -(-batch_size // chunk_rows))
        plan = self._pipeline_plan(
            tuple(alive), state_shape, chunk_rows, num_chunks
        )
        # numpy.array_split row counts; zero-row chunks never enter the
        # schedule.
        base, longer = divmod(batch_size, num_chunks)
        sizes = [base + 1] * longer + [base] * (num_chunks - longer if base else 0)
        num_chunks = len(sizes)
        # Chunks of one size cost the same: price each distinct size once.
        layer_cycles: dict[str, int] = {}
        macs = 0
        stage_times: dict[int, list[int]] = {}
        for size, count in Counter(sizes).items():
            step = network_training_step_cost(
                self.network, state_shape, size,
                config=self.config, first_trainable=first_trainable,
            )
            macs += count * step.total_macs
            stage_times[size] = [
                sum(cost.total_cycles for cost in step.layers[lo:hi])
                for lo, hi in zip(plan.param_bounds, plan.param_bounds[1:])
            ]
            for cost in step.layers:
                layer_cycles[cost.name] = (
                    layer_cycles.get(cost.name, 0) + count * cost.total_cycles
                )
        stages = plan.stages
        times = [[stage_times[size][s] for size in sizes] for s in range(stages)]
        critical_compute, busy, assign = _pipeline_schedule(
            times, plan.widths
        )
        shard_cycles = [0] * self.shards
        for s, arrays in enumerate(plan.stage_arrays):
            for a, orig in enumerate(arrays):
                shard_cycles[orig] = busy[s][a]
        merge = 0
        merge_hops = 0

        def ship(elements: int, src: int, dst: int) -> None:
            nonlocal merge, merge_hops
            cycles, hops = self._ship(elements, src, dst)
            merge += cycles
            merge_hops += hops

        # Stage hand-offs: chunk m leaves stage s-1's serving array for
        # stage s's, carrying the boundary activation.
        boundary_rows = _parametric_input_elements(self.network, state_shape)
        param_indices = [i for i, _l in self.network.parametric_layers()]
        for s in range(1, stages):
            first_param = plan.param_bounds[s]
            rows = boundary_rows[first_param]
            # Gradient crosses back over this boundary iff a trainable
            # parametric layer sits below it (backprop reaches it).
            grad_crosses = param_indices[first_param - 1] >= first_trainable
            for m in range(num_chunks):
                ship(
                    sizes[m] * rows * (2 if grad_crosses else 1),
                    plan.stage_arrays[s - 1][assign[s - 1][m]],
                    plan.stage_arrays[s][assign[s][m]],
                )
        if q_width:
            q_hub = plan.stage_arrays[-1][0]
            for m in range(num_chunks):
                src = plan.stage_arrays[-1][assign[-1][m]]
                if src != q_hub:
                    ship(sizes[m] * q_width, src, q_hub)
        for s, arrays in enumerate(plan.stage_arrays):
            # Replicated stage: each replica trained on its own chunks,
            # so the stage's weight gradients all-reduce to its first
            # array before the update applies (weight counts do not
            # depend on the chunk size, so any priced step serves).
            lo, hi = plan.param_bounds[s], plan.param_bounds[s + 1]
            stage_grad = sum(cost.weight_elements for cost in step.layers[lo:hi])
            for orig in arrays[1:]:
                ship(stage_grad, orig, arrays[0])
        if chaos:
            # Transient retries and stragglers stretch an array's busy
            # time; charged conservatively to the makespan (every chunk
            # behind the slow array waits).
            for orig in alive:
                if shard_cycles[orig]:
                    extra = self._chaos_extra(orig, shard_cycles[orig])
                    shard_cycles[orig] += extra
                    critical_compute += extra
        fill_drain = critical_compute - max(shard_cycles)
        return ShardCost(
            backend=self.name, states=batch_size, macs=macs,
            layer_cycles=layer_cycles, shards=self.shards,
            shard_cycles=tuple(shard_cycles),
            critical_path_cycles=critical_compute + merge, merge_cycles=merge,
            critical_shard_index=_argmax(shard_cycles),
            merge_hops=merge_hops, fill_drain_cycles=fill_drain,
            noc=self.noc,
        )
