"""Run one benchmark workload and print its metrics as JSON.

    python3 perfbench/run.py --workload fleet-sharded --seed 1 --seconds 25 --trace 0

Run from the root of a checkout: the program is imported from ``src/``.
Every invocation is one fresh process running one workload, so memo
caches and peak memory are never shared between workloads.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced units (the layer wrappers of ``layers.py``
installed) and prints the per-layer metrics, the modelled cycles and
the tracing overhead.  Either way the last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = Path.cwd() / "src"
SETUPS = 21
#: Samples beyond the highest reported percentile (act p99, update p90).
MIN_TAIL = 10


def prepare() -> int:
    """Make ``src/`` and this directory importable and cap BLAS threads
    at the cores this process may use; returns the thread count.

    Must run before numpy is imported.  Exits when the working directory
    holds no program source.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"error: no program source under {SRC}; run from a checkout root")
    sys.path[:0] = [str(HERE), str(SRC)]
    cores = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        value = os.environ.get(var, "")
        if not value.isdigit() or not 0 < int(value) <= cores:
            os.environ[var] = str(cores)
    return int(os.environ["OPENBLAS_NUM_THREADS"])


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in (0, 100])."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_workload(name: str, seed: int, seconds: float, trace: bool, small: bool = False):
    """Set up, warm up, then measure ``name`` for ``seconds``.

    Host times are scaled to the reference host speed (``hostspeed``).
    Returns ``(result, report)``: the JSON result object and a dict of
    everything else worth printing (raw times, modelled cycles, layers).
    """
    from repro.parallel.memo import clear_memo_caches, memo_stats

    import hostspeed
    import layers
    import workloads

    workload = workloads.make(name, small)
    meter = workloads.Meter(workload.backend_cls)
    clock = hostspeed.HostClock(meter.rescale)
    setup_s, setup_host = [], []
    for _ in range(SETUPS):
        # Each set-up starts from cold cost-oracle caches, as a user's does.
        clear_memo_caches()
        host, scaled = clock.host_s, clock.scaled_s
        clock.segment(workload.setup, seed)
        setup_host.append(clock.host_s - host)
        setup_s.append(clock.scaled_s - scaled)

    probe_net = workloads.new_network(seed)
    tracer = layers.Tracer(layers.layer_groups(probe_net))
    meter.patches.install()
    # Built after the meter so the layer wrappers sit outside it.
    patches = layers.layer_patches(tracer, probe_net, workload.backend_cls)
    attempted = failed = 0
    rates = {False: [], True: []}
    host_rates = []
    timed_s = traced_s = 0.0
    index = 0
    try:
        while True:
            warmup = index == 0
            traced = trace and index % 2 == 0 and not warmup
            meter.recording = not warmup
            meter.capturing = True
            meter.served.clear()
            first_loss = len(meter.losses)
            clock.restart()
            if traced:
                patches.install()
            try:
                workload.unit(index, clock)
            finally:
                if traced:
                    patches.uninstall()
            meter.recording = meter.capturing = False
            frames, updates = workload.counts()
            attempted += frames + updates
            failed += workload.check(meter, meter.losses[first_loss:])
            index += 1
            if warmup:
                continue
            rates[traced].append(frames / clock.scaled_s)
            host_rates.append(frames / clock.host_s)
            timed_s += clock.host_s
            traced_s += clock.host_s if traced else 0.0
            enough_samples = trace or (
                len(meter.act_ms) >= 100 * MIN_TAIL
                and len(meter.update_ms) >= 10 * MIN_TAIL
            )
            if timed_s >= seconds and (enough_samples or timed_s >= 3 * seconds):
                if not trace or (rates[True] and rates[False]):
                    break
    finally:
        meter.patches.uninstall()

    cost = meter.costs.merge()
    cycles_per_state = cost.critical_path_cycles / cost.states if cost.states else 0.0
    cycles_per_update = (
        workload.train_critical_path_cycles / workload.train_updates
        if workload.train_updates
        else 0.0
    )
    report = {
        "modelled_frame_us": cycles_per_state / workloads.CLOCK_HZ * 1e6,
        "modelled_update_us": cycles_per_update / workloads.CLOCK_HZ * 1e6,
        "modelled_cycles_per_state": cycles_per_state,
        "modelled_cycles_per_update": cycles_per_update,
        "units": index - 1,
        "act_samples": len(meter.act_ms),
        "update_samples": len(meter.update_ms),
        "host_setup_s": statistics.median(setup_host),
        "host_frames_per_s": statistics.median(host_rates),
        "host_scale": statistics.median(clock.scales),
    }
    if trace:
        metrics, table = per_layer_metrics(
            tracer, cost, memo_stats(), report, rates, traced_s
        )
        report["layers"] = table
    else:
        metrics = {
            "setup_s": (statistics.median(setup_s), "s"),
            "frames_per_s": (statistics.median(rates[False]), "1/s"),
            "act_ms_p50": (percentile(meter.act_ms, 50), "ms"),
            "act_ms_p99": (percentile(meter.act_ms, 99), "ms"),
            "update_ms_p50": (percentile(meter.update_ms, 50), "ms"),
            "update_ms_p90": (percentile(meter.update_ms, 90), "ms"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, report


NN_GROUPS = ("CONV1", "CONV1.pool", "CONV2", "CONV2.pool", "FC1", "FC2", "FC3", "FC4", "FC5")
ARRAY_LAYERS = ("CONV1", "CONV2", "FC1", "FC2", "FC3", "FC4", "FC5")
#: System layers timed by the stack, reported as ``<name>.calls`` and
#: ``<name>.busy_s``.
SPANS = (
    "env.step", "env.render", "agent.act", "agent.observe", "agent.update",
    "replay.sample", "nn.forward", "nn.backward", "systolic.im2col",
    "systolic.gemm", "backend.forward", "backend.sync", "shard.forward_layer",
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(tracer, cost, memo, report, rates, traced_s):
    """Per-layer metrics of the traced units, and a layer table.

    Busy times are self times summed over the traced units; the table
    gives each system layer's share of the traced wall time.
    """
    m: dict[str, tuple[float, str]] = {}
    for name in SPANS:
        m[f"{name}.calls"] = (tracer.calls[name], "count")
        m[f"{name}.busy_s"] = (tracer.self_s[name], "s")
    m["env.physics.busy_s"] = (tracer.self_s["env.physics"], "s")
    m["agent.act.forward_frac"] = (
        _ratio(tracer.incl_s["backend.forward"], tracer.incl_s["agent.act"]), "ratio"
    )
    m["nn.forward.rows"] = (tracer.work["nn.forward"], "count")
    for group in NN_GROUPS:
        m[f"nn.{group}.fwd_s"] = (tracer.layer_s[f"nn.{group}.fwd_s"], "s")
        m[f"nn.{group}.bwd_s"] = (tracer.layer_s[f"nn.{group}.bwd_s"], "s")
    m["nn.frozen_fwd_frac"] = (
        _ratio(tracer.update_frozen_fwd_s, tracer.update_fwd_s), "ratio"
    )
    m["fixedpoint.to_raw.calls"] = (tracer.calls["fixedpoint.to_raw"], "count")
    m["fixedpoint.quantize.calls"] = (tracer.calls["fixedpoint.quantize"], "count")
    fixedpoint = ("fixedpoint.to_raw", "fixedpoint.from_raw", "fixedpoint.quantize")
    m["fixedpoint.busy_s"] = (sum(tracer.self_s[n] for n in fixedpoint), "s")
    m["backend.forward.states"] = (tracer.work["backend.forward"], "count")
    m["backend.cycles_per_state"] = (_ratio(cost.total_cycles, cost.states), "cycles")
    for layer in ARRAY_LAYERS:
        m[f"backend.{layer}.cycles_per_state"] = (
            _ratio(cost.layer_cycles.get(layer, 0), cost.states), "cycles"
        )
        m[f"backend.{layer}.fwd_s"] = (tracer.layer_s[f"backend.{layer}.fwd_s"], "s")
    sharded = cost.shards > 1
    m["shard.host_overhead_frac"] = (
        1.0 - _ratio(tracer.incl_s["shard.forward_layer"], tracer.incl_s["backend.forward"])
        if sharded else 0.0,
        "ratio",
    )
    m["shard.critical_path_cycles_per_state"] = (
        _ratio(cost.critical_path_cycles, cost.states) if sharded else 0.0, "cycles"
    )
    m["shard.merge_cycles_per_state"] = (_ratio(cost.merge_cycles, cost.states), "cycles")
    m["shard.fill_drain_cycles_per_state"] = (
        _ratio(cost.fill_drain_cycles, cost.states), "cycles"
    )
    m["shard.scaling_efficiency"] = (
        cost.scaling_efficiency if sharded else 0.0, "ratio"
    )
    m["shard.train_critical_path_cycles_per_update"] = (
        report["modelled_cycles_per_update"], "cycles"
    )
    hits = sum(row["hits"] for row in memo.values())
    misses = sum(row["misses"] for row in memo.values())
    m["memo.hits"] = (hits, "count")
    m["memo.misses"] = (misses, "count")
    m["memo.hit_rate"] = (_ratio(hits, hits + misses), "ratio")
    m["modelled_frame_us"] = (report["modelled_frame_us"], "us")
    m["modelled_update_us"] = (report["modelled_update_us"], "us")
    m["trace.overhead_frac"] = (
        1.0 - _ratio(statistics.median(rates[True]), statistics.median(rates[False])),
        "ratio",
    )
    busy = dict(tracer.self_s)
    busy["fixedpoint"] = sum(busy.pop(n, 0.0) for n in fixedpoint)
    busy["unattributed"] = max(traced_s - sum(busy.values()), 0.0)
    table = sorted(
        ((name, secs, _ratio(secs, traced_s)) for name, secs in busy.items()),
        key=lambda row: -row[1],
    )
    return m, table


def _format_table(table) -> str:
    lines = ["# layer                     busy_s   share"]
    for name, secs, share in table:
        lines.append(f"# {name:<24} {secs:8.3f}  {share:6.1%}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    blas_threads = prepare()
    import numpy

    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    result, report = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "nproc": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads,
        "numpy": numpy.__version__,
        **{k: v for k, v in report.items() if k != "layers"},
    }
    print("# " + json.dumps(info))
    if "layers" in report:
        print(_format_table(report["layers"]))
        top = next(name for name, *_ in report["layers"] if name != "unattributed")
        print(f"# top host layer: {top}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
