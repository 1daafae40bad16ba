"""Multi-array execution backend: K systolic arrays behind one seam.

The ROADMAP's "serves heavy traffic" direction needs more than one
32x32 array.  :class:`ShardedBackend` models spreading the Q network's
forward over K arrays, behind the ordinary
``forward_batch(states) -> (q_values, cost)`` seam, under three shard
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
  the layer policy's per-layer all-gather collapses.

**One datapath, three cost plans.**  Every policy's Q values are the
single array's: the fixed-point arithmetic is exact integers, so
splitting a batch or slicing an output dimension removes no term and
reorders no per-element sum, and the re-quantisation between layers is
elementwise, so it commutes with the concatenation that would merge
shard outputs.  The host therefore runs the numerics *once*, through
one :class:`~repro.backend.systolic_backend.SystolicBackend`, and each
policy only *prices* its plan — per-array cycles from the memoised
closed-form oracle at the chunk, slice or micro-batch shape, plus the
inter-array transfers — without executing it.  The same pricing
function serves inference and :meth:`ShardedBackend.train_cost`.
Faults change only the plan: a crash drops the cached plans so the
next forward replans over the survivors, and transient / straggler
faults add per-array cycles.  Because the numerics are one whole-batch
forward, ``quantized=False`` float output is bitwise the single
array's under every policy too.

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

import math
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
from repro.systolic.noc import NocModel

__all__ = ["ShardedBackend", "SHARD_POLICIES"]

#: Supported shard policies.
SHARD_POLICIES = ("sample", "layer", "pipeline")


def _argmax(cycles: list[int]) -> int:
    """Index of the slowest array (ties toward the lowest index)."""
    if not cycles:
        return 0
    return max(range(len(cycles)), key=cycles.__getitem__)


def _split_sizes(rows: int, parts: int) -> list[int]:
    """Row counts of :func:`numpy.array_split` (zero-row parts included)."""
    base, longer = divmod(rows, parts)
    return [base + 1] * longer + [base] * (parts - longer)


class _Traffic:
    """Merge cycles and element-hops of one plan's inter-array transfers."""

    def __init__(self, noc: NocModel):
        self.noc = noc
        self.cycles = 0
        self.hops = 0

    def ship(self, elements: int, src: int, dst: int) -> None:
        self.cycles += self.noc.transfer_cycles(elements, src, dst)
        self.hops += self.noc.element_hops(elements, src, dst)


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


# ----------------------------------------------------------------------
# Per-layer pricing shared by the plans
# ----------------------------------------------------------------------
def _parametric_inputs(
    network: Network, state_shape: tuple[int, ...]
) -> list[tuple[int, object, tuple[int, ...]]]:
    """``(index, layer, input_shape)`` of every conv / FC layer.

    Walks the built layer stack tracking the activation shape from
    ``state_shape`` (C, H, W).  ``input_shape`` is the per-row tensor
    the layer consumes — ``(C, H, W)`` for a conv, ``(in_features,)``
    for an FC layer — and the one that crosses an inter-array link
    when a stage or slice boundary sits just before that layer.
    """
    c, h, w = (int(v) for v in state_shape)
    inputs = []
    for index, layer in enumerate(network.layers):
        if isinstance(layer, Conv2D):
            inputs.append((index, layer, (c, h, w)))
            c, h, w = layer.output_shape(h, w)
        elif isinstance(layer, MaxPool2D):
            h, w = layer.output_shape(h, w)
        elif isinstance(layer, Dense):
            inputs.append((index, layer, (layer.in_features,)))
        # ReLU / norm / flatten: no shape change that matters here
        # (flatten keeps c*h*w, which is what Dense.in_features reads).
    return inputs


def _out_width(layer) -> int:
    """Output channels (conv) or features (FC) — the axis slices split."""
    return layer.out_channels if isinstance(layer, Conv2D) else layer.out_features


def _slice_cost(layer, input_shape, width, rows, config, trainable):
    """Closed-form cost of ``width`` of ``layer``'s outputs over ``rows``.

    The per-layer oracle the sample and layer plans price from (the
    same one ``network_training_step_cost`` walks): forward GEMM cycles,
    plus the dW / dX GEMMs when ``trainable``.  ``width`` is the full
    output width for a whole-layer pass, or a layer slice's.
    """
    from repro.systolic.training import _conv_layer_cost, _fc_layer_cost

    if isinstance(layer, Conv2D):
        cost, _ = _conv_layer_cost(
            layer.name, *input_shape, width, layer.kernel_size,
            layer.stride, layer.pad, rows, config, trainable,
        )
        return cost
    return _fc_layer_cost(
        layer.name, layer.in_features, width, rows, config, trainable
    )


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
        Passed through to the array datapath — the same one the
        single-array :class:`SystolicBackend` models.
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
        Host process-pool size (``"auto"`` = one per CPU, capped at K)
        under every policy.  ``1`` (default) runs the numerics inline;
        more workers split the batch's rows over the pool, each worker
        forwarding its rows through its copy of the array datapath.
        Rows are independent and the quantised arithmetic is exact, so
        Q values are bitwise identical at any worker count (float
        numerics, ``quantized=False``, agree to round-off), and every
        cost and fault decision stays in this process.
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
        self.noc = noc
        self.pipeline_chunk = pipeline_chunk
        # Validates the topology name; node ids are *original* array
        # indices, so transfers stay well-defined after failover.
        self._noc = NocModel(
            topology=noc, nodes=shards,
            word_bits=activation_format.total_bits,
        )
        #: The one array datapath.  Every array of every policy holds
        #: the same quantised weights (full copies, or slices of the
        #: same tensors), so one simulated array runs the numerics and
        #: its buffers are the ones syncs and SRAM faults reach.
        self.array = SystolicBackend(
            network, config=config, fidelity=fidelity, quantized=quantized,
            weight_format=weight_format, activation_format=activation_format,
        )
        self.config = self.array.config
        self._price = {
            "sample": self._price_sample,
            "layer": self._price_layer,
            "pipeline": self._price_pipeline,
        }[shard]
        #: Lazily built float fallback for all-arrays-lost degradation.
        self._fallback = None
        self._chaos_forward = 0
        self.workers = resolve_workers(workers, tasks=shards)
        #: Bumped whenever the serving weights change (sync, chaos bit
        #: flips, buffer restore); the pool executor ships weight deltas
        #: to workers only when its shipped version falls behind.
        self._weights_version = 0
        self._executor = None
        #: Cached plans — layer slices keyed on the alive arrays,
        #: pipeline stage layouts on (alive arrays, state shape, chunk
        #: rows, chunk count); crash failover clears them.
        self._plans: dict[tuple, object] = {}

    def sync(self) -> None:
        """Download the live float weights into the array datapath.

        Every array's copy (or slice) is byte-identical to the one
        array's, so one re-quantisation serves all K.
        """
        self._weights_version += 1
        self.array.sync()

    # ------------------------------------------------------------------
    # Serving-buffer seam (fault injection / detection)
    # ------------------------------------------------------------------
    @property
    def weight_format(self):
        return self.array.weight_format

    def weight_buffers(self) -> dict[str, np.ndarray]:
        """The array datapath's serving buffers (full tensors)."""
        return self.array.weight_buffers()

    def corrupt_weight_bit(self, name: str, index: int, bit: int) -> None:
        self._weights_version += 1
        self.array.corrupt_weight_bit(name, index, bit)

    def _refresh_weight_values(self) -> None:
        self._weights_version += 1
        self.array._refresh_weight_values()

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
        array's work onto the survivors by dropping the cached plans:
        the next forward replans over the alive arrays.  The serving
        weights stay the published snapshot — nothing is re-synced.
        With no survivors the backend degrades to the float numpy
        fallback.
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
            self._plans.clear()
        inj.mark_recovered(
            rec,
            detail=(
                "degraded to numpy fallback"
                if not alive
                else f"failover onto {len(alive)} surviving arrays"
            ),
        )

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
    # The one datapath
    # ------------------------------------------------------------------
    def forward_batch(self, states: np.ndarray) -> tuple[np.ndarray, ShardCost]:
        """Numerics once through the array, then the policy's priced plan.

        Faults first (a due crash replans over the survivors; with no
        array alive the float fallback serves), then one executor pass
        — inline, or row-split over the pool when ``workers > 1`` —
        then the plan's price, including transient/straggler extras.
        Each host pass records one ``shard.forward`` span carrying its
        ``states``; the spans' cycles sum to the priced critical path.
        """
        x = np.asarray(states, dtype=np.float64)
        if x.ndim != 4:
            raise ValueError(f"expected an (N, C, H, W) state batch, got {x.shape}")
        if FAULTS.enabled:
            self._chaos_forward = FAULTS.injector.note_forward()
        alive = self._active_shards()
        if not alive:
            return self._forward_degraded(x)
        q_values, passes = self._execute(x)
        cost = self._price(
            x.shape[0], x.shape[1:], len(self.network.layers), alive,
            q_width=math.prod(q_values.shape[1:]), chaos=FAULTS.enabled,
        )
        if PROBE.enabled:
            # Split the critical path over the passes by rows; the
            # first pass takes the rounding remainder.
            critical = cost.critical_path_cycles
            shares = [critical * rows // x.shape[0] for rows, _ns, _w in passes]
            shares[0] += critical - sum(shares)
            for (rows, wall_ns, worker), cycles in zip(passes, shares):
                PROBE.record_span(
                    "shard.forward", wall_ns, cycles=cycles, worker=worker,
                    states=rows,
                )
        return q_values, cost

    def _execute(self, x: np.ndarray) -> tuple[np.ndarray, list[tuple]]:
        """Q values and the host passes ``[(rows, wall_ns, worker)]``."""
        if self.workers > 1:
            chunks = [c for c in np.array_split(x, self.workers) if c.shape[0]]
            if len(chunks) > 1:
                results = self._shard_executor().forward_chunks(chunks)
                q_values = np.concatenate([q for q, _ns, _w in results], axis=0)
                return q_values, [
                    (chunk.shape[0], wall_ns, worker)
                    for chunk, (_q, wall_ns, worker) in zip(chunks, results)
                ]
        start = time.perf_counter_ns()
        q_values, _ = self.array.forward_batch(x)
        return q_values, [(x.shape[0], time.perf_counter_ns() - start, None)]

    def _shard_executor(self):
        """The pool executor for row-split forwards, built on first
        parallel dispatch (workers spawn only when actually used)."""
        if self._executor is None:
            from repro.parallel.dispatch import ShardExecutor

            self._executor = ShardExecutor(self, self.workers)
        return self._executor

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
          slice, so dW stays local; the backward pays a partial-dX
          reduction per layer instead.
        * ``pipeline`` — pipelined: micro-batches stream forward and
          backward through the stages; fill/drain bubbles are charged
          explicitly and boundary activations (and their gradients)
          cross the NoC.

        The plan is priced by the same function inference uses.
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
        return self._price(batch_size, state_shape, first_trainable, alive)

    # ------------------------------------------------------------------
    # Cost plans: one pricing function per policy, shared by inference
    # (``first_trainable == len(network.layers)``) and training
    # ------------------------------------------------------------------
    def _shard_cost(
        self,
        batch_size: int,
        macs: int,
        layer_cycles: dict[str, int],
        shard_cycles: list[int],
        compute_cycles: int,
        traffic: _Traffic,
        fill_drain: int = 0,
    ) -> ShardCost:
        """The :class:`ShardCost` of a priced plan: critical path =
        parallel compute + merge traffic."""
        return ShardCost(
            backend=self.name, states=batch_size, macs=macs,
            layer_cycles=layer_cycles, shards=self.shards,
            shard_cycles=tuple(shard_cycles),
            critical_path_cycles=compute_cycles + traffic.cycles,
            merge_cycles=traffic.cycles,
            critical_shard_index=_argmax(shard_cycles),
            merge_hops=traffic.hops, fill_drain_cycles=fill_drain,
            noc=self.noc,
        )

    def _price_sample(
        self,
        batch_size: int,
        state_shape: tuple[int, ...],
        first_trainable: int,
        alive: list[int],
        q_width: int = 0,
        chaos: bool = False,
    ) -> ShardCost:
        """Each alive array runs the whole network over its batch chunk.

        The batch splits over the *surviving* arrays — after a crash
        failover the same work re-splits onto fewer chunks, so each
        survivor's chunk (and cycle bill) grows by ~K/(K-1).  A chunk's
        cycles are its layers' costs from the per-layer oracle, priced
        once per distinct chunk size.  Every non-root array then ships
        its ``q_width`` Q values per row (inference) and its full
        weight gradient (training) to the root array; ``chaos`` charges
        the FAULTS transient/straggler extras per array.
        """
        inputs = _parametric_inputs(self.network, state_shape)
        sizes = _split_sizes(batch_size, len(alive))
        chunk_costs = {
            size: [
                _slice_cost(
                    layer, shape, _out_width(layer), size, self.config,
                    index >= first_trainable,
                )
                for index, layer, shape in inputs
            ]
            for size in set(sizes) if size
        }
        grad_elements = sum(
            cost.weight_elements for cost in chunk_costs[sizes[0]]
        )
        shard_cycles = [0] * self.shards
        layer_cycles: dict[str, int] = {}
        macs = 0
        traffic = _Traffic(self._noc)
        root = alive[0]
        for k, size in zip(alive, sizes):
            if not size:
                continue  # batch narrower than K: array k sits idle
            for cost in chunk_costs[size]:
                shard_cycles[k] += cost.total_cycles
                macs += cost.total_macs
                layer_cycles[cost.name] = (
                    layer_cycles.get(cost.name, 0) + cost.total_cycles
                )
            if chaos:
                shard_cycles[k] += self._chaos_extra(k, shard_cycles[k])
            if k != root:
                if q_width:
                    traffic.ship(size * q_width, k, root)
                if grad_elements:
                    traffic.ship(grad_elements, k, root)
        return self._shard_cost(
            batch_size, macs, layer_cycles, shard_cycles,
            max(shard_cycles), traffic,
        )

    def _layer_plan(self, alive: tuple[int, ...]) -> dict[int, list[tuple]]:
        """The (cached) output-slice plan over the alive arrays.

        ``{layer_index: [(array, lo, hi), ...]}`` for every conv / FC
        layer: contiguous slices of its filters / output neurons.  An
        array left without a slice of a layer narrower than the alive
        count sits idle on it and is no consumer of it.
        """
        key = ("layer", alive)
        plan = self._plans.get(key)
        if plan is None:
            plan = {}
            for index, layer in self.network.parametric_layers():
                bounds = np.linspace(0, _out_width(layer), len(alive) + 1)
                bounds = bounds.astype(int)
                plan[index] = [
                    (k, int(lo), int(hi))
                    for k, lo, hi in zip(alive, bounds, bounds[1:])
                    if hi > lo
                ]
            self._plans[key] = plan
        return plan

    def _price_layer(
        self,
        batch_size: int,
        state_shape: tuple[int, ...],
        first_trainable: int,
        alive: list[int],
        q_width: int = 0,
        chaos: bool = False,
    ) -> ShardCost:
        """Every alive array computes its output slice of each layer.

        Layers run in sequence (true data dependency); within a layer
        the slices run in parallel, so the layer contributes its
        *slowest* slice to the critical path.  Slice cycles come from
        the same per-layer oracle the whole-layer plans use, evaluated
        on the slice's width.  What crosses the NoC:

        * after each parametric layer, every non-hub slice gathers to
          the layer's hub (its first array) — the last layer's gather
          is the Q gather, so ``q_width`` adds nothing here;
        * before each parametric layer but the first, the hub
          broadcasts the activation the layer consumes (post-pooling)
          to every *other* array computing it — once per receiving
          link, never to the hub itself;
        * in training, per trainable layer with a trainable layer
          below, a partial-dX reduction: every non-hub array ships its
          partial input-gradient to the hub, which forwards the sum to
          the arrays of the previous parametric layer.  dW stays on
          the array that applies it.

        ``chaos`` charges each busy array's transient/straggler extras
        conservatively to the critical path (every layer barrier waits
        on its slowest slice).
        """
        plan = self._layer_plan(tuple(alive))
        shard_cycles = [0] * self.shards
        layer_cycles: dict[str, int] = {}
        macs = 0
        critical = 0
        traffic = _Traffic(self._noc)
        hub: int | None = None  # array holding the merged activation
        prev: tuple[int, list[int]] | None = None  # previous layer, consumers
        for index, layer, shape in _parametric_inputs(self.network, state_shape):
            slices = plan[index]
            trainable = index >= first_trainable
            consumers = [k for k, _lo, _hi in slices]
            act_in = batch_size * math.prod(shape)
            if hub is not None:
                for dst in consumers:
                    if dst != hub:
                        traffic.ship(act_in, hub, dst)
            slowest = 0
            for k, lo, hi in slices:
                cost = _slice_cost(
                    layer, shape, hi - lo, batch_size, self.config, trainable
                )
                shard_cycles[k] += cost.total_cycles
                slowest = max(slowest, cost.total_cycles)
                macs += cost.total_macs
                layer_cycles[layer.name] = (
                    layer_cycles.get(layer.name, 0) + cost.total_cycles
                )
            critical += slowest
            per_unit = (
                math.prod(layer.output_shape(*shape[1:])[1:])
                if isinstance(layer, Conv2D)
                else 1
            )
            new_hub = consumers[0]
            for k, lo, hi in slices[1:]:
                traffic.ship(batch_size * (hi - lo) * per_unit, k, new_hub)
            if trainable and prev is not None and prev[0] >= first_trainable:
                for k in consumers[1:]:
                    traffic.ship(act_in, k, new_hub)
                for dst in prev[1]:
                    if dst != new_hub:
                        traffic.ship(act_in, new_hub, dst)
            hub, prev = new_hub, (index, consumers)
        if chaos:
            for k in alive:
                if shard_cycles[k]:
                    extra = self._chaos_extra(k, shard_cycles[k])
                    shard_cycles[k] += extra
                    critical += extra
        return self._shard_cost(
            batch_size, macs, layer_cycles, shard_cycles, critical, traffic
        )

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
        plan = self._plans.get(key)
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
        self._plans[key] = plan
        return plan

    def _price_pipeline(
        self,
        batch_size: int,
        state_shape: tuple[int, ...],
        first_trainable: int,
        alive: list[int],
        q_width: int = 0,
        chaos: bool = False,
    ) -> ShardCost:
        """Price micro-batches streaming through the stages.

        Each stage's per-chunk time is its layers' forward (+ backward)
        GEMM cycles from the memoised closed-form oracle at that
        chunk's rows; the chunked schedule yields the makespan,
        per-array busy cycles and fill/drain bubbles.  Stage-boundary
        activations cross the NoC once forward and — while a trainable
        layer sits below the boundary — once more backward as the dX
        gradient; replicated (width > 1) stages all-reduce their
        trainable weight gradients within the stage (nothing when
        every layer is frozen).  ``q_width`` > 0 gathers that many Q
        values per row from the last stage's replicas to its first
        array; ``chaos`` charges the FAULTS transient/straggler extras.
        """
        from repro.systolic.training import network_training_step_cost

        state_shape = tuple(int(v) for v in state_shape)
        chunk_rows = self._resolve_pipeline_chunk(batch_size, len(alive))
        num_chunks = max(1, -(-batch_size // chunk_rows))
        plan = self._pipeline_plan(
            tuple(alive), state_shape, chunk_rows, num_chunks
        )
        # Zero-row chunks never enter the schedule.
        sizes = [size for size in _split_sizes(batch_size, num_chunks) if size]
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
        traffic = _Traffic(self._noc)
        # Stage hand-offs: chunk m leaves stage s-1's serving array for
        # stage s's, carrying the boundary activation.
        boundary_rows = [
            math.prod(shape)
            for _i, _l, shape in _parametric_inputs(self.network, state_shape)
        ]
        param_indices = [i for i, _l in self.network.parametric_layers()]
        for s in range(1, stages):
            first_param = plan.param_bounds[s]
            rows = boundary_rows[first_param]
            # Gradient crosses back over this boundary iff a trainable
            # parametric layer sits below it (backprop reaches it).
            grad_crosses = param_indices[first_param - 1] >= first_trainable
            for m in range(num_chunks):
                traffic.ship(
                    sizes[m] * rows * (2 if grad_crosses else 1),
                    plan.stage_arrays[s - 1][assign[s - 1][m]],
                    plan.stage_arrays[s][assign[s][m]],
                )
        if q_width:
            q_hub = plan.stage_arrays[-1][0]
            for m in range(num_chunks):
                src = plan.stage_arrays[-1][assign[-1][m]]
                if src != q_hub:
                    traffic.ship(sizes[m] * q_width, src, q_hub)
        for s, arrays in enumerate(plan.stage_arrays):
            # Replicated stage: each replica trained on its own chunks,
            # so the stage's weight gradients all-reduce to its first
            # array before the update applies (weight counts do not
            # depend on the chunk size, so any priced step serves).
            lo, hi = plan.param_bounds[s], plan.param_bounds[s + 1]
            stage_grad = sum(cost.weight_elements for cost in step.layers[lo:hi])
            for orig in arrays[1:]:
                traffic.ship(stage_grad, orig, arrays[0])
        if chaos:
            # Transient retries and stragglers stretch an array's busy
            # time; charged conservatively to the makespan (every chunk
            # behind the slow array waits).
            for orig in alive:
                if shard_cycles[orig]:
                    extra = self._chaos_extra(orig, shard_cycles[orig])
                    shard_cycles[orig] += extra
                    critical_compute += extra
        return self._shard_cost(
            batch_size, macs, layer_cycles, shard_cycles, critical_compute,
            traffic, fill_drain=critical_compute - max(shard_cycles),
        )
