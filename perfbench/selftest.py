"""Test of the benchmark's output checks.

    python3 perfbench/selftest.py

Run from the root of a checkout.  Each workload runs briefly at reduced
size three times over: clean (every check must pass), then with one
fault planted from outside, which the run must report as a failure:

* ``fleet-float`` / ``fleet-sharded``: one served Q value is moved by
  one ulp in one greedy (evaluation) act call;
* ``tl-single``: one frozen CONV1 weight is overwritten during an L2,
  L3 or L4 adaptation, i.e. the NVM is written online.

It also checks that the metric names printed match ``BENCHMARK.json``.
Exits 0 when every case behaves, 1 otherwise.
"""

from __future__ import annotations

import json
import sys

import run

SECONDS = 0.3


def perturb_one_served_q(backend_cls):
    """Patches that move one Q value of the first greedy forward."""
    from layers import Patches
    from repro.rl.agent import QLearningAgent

    import numpy as np

    state = {"greedy": False, "done": False}
    patches = Patches()

    def act(fn):
        def wrapped(agent, *args, **kwargs):
            state["greedy"] = kwargs.get("greedy", False)
            try:
                return fn(agent, *args, **kwargs)
            finally:
                state["greedy"] = False

        return wrapped

    def forward(fn):
        def wrapped(backend, states):
            q_values, cost = fn(backend, states)
            if state["greedy"] and not state["done"]:
                state["done"] = True
                q_values = q_values.copy()
                q_values[0, 0] = np.nextafter(q_values[0, 0], np.inf)
            return q_values, cost

        return wrapped

    patches.add(QLearningAgent, "act_batch", act)
    patches.add(backend_cls, "forward_batch", forward)
    return patches


def overwrite_one_frozen_weight():
    """Patches that write one CONV1 weight during a partial-backprop update."""
    from layers import Patches
    from repro.rl.agent import QLearningAgent

    state = {"done": False}
    patches = Patches()

    def update(fn):
        def wrapped(agent, *args, **kwargs):
            loss = fn(agent, *args, **kwargs)
            if agent.first_trainable > 0 and not state["done"]:
                state["done"] = True
                agent.network.layers[0].weight.value.flat[0] += 1e-3
            return loss

        return wrapped

    patches.add(QLearningAgent, "train_step_batch", update)
    return patches


def main() -> int:
    run.prepare()
    import workloads

    with open("BENCHMARK.json") as handle:
        spec = json.load(handle)
    names = {
        False: [m["name"] for m in spec["end_to_end"]],
        True: [m["name"] for m in spec["per_layer"]],
    }
    faults = {
        "tl-single": overwrite_one_frozen_weight,
        "fleet-float": lambda: perturb_one_served_q(workloads.NumpyBackend),
        "fleet-sharded": lambda: perturb_one_served_q(workloads.ShardedBackend),
    }
    problems = []
    for name in workloads.WORKLOADS:
        for trace in (False, True):
            result, _ = run.run_workload(name, 1, SECONDS, trace, small=True)
            ok = result["correct"] and result["failed"] == 0
            ok = ok and sorted(result["metrics"]) == sorted(names[trace])
            print(f"{name} clean trace={int(trace)}: {result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}")
            if not ok:
                problems.append(f"{name}: clean run (trace={int(trace)}) misreported")
        patches = faults[name]()
        patches.install()
        try:
            result, _ = run.run_workload(name, 1, SECONDS, False, small=True)
        finally:
            patches.uninstall()
        print(f"{name} with fault: {result['correct']} "
              f"failed={result['failed']}/{result['attempted']}")
        if result["correct"] or result["failed"] == 0:
            problems.append(f"{name}: planted fault not reported")
    for problem in problems:
        print("FAIL", problem)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
