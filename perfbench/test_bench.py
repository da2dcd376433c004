"""Self-test of the benchmark: tracing must not change results, counts must repeat.

    python3 -m pytest perfbench/test_bench.py -q

Runs small versions of the workloads so it finishes in well under a minute.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from morphoctl import control, forward, grid, linearized  # noqa: E402
from tracer import Tracer  # noqa: E402

# Per-layer metrics that are counts, not times: they must repeat exactly.
COUNTS = (
    "forward.solve_calls",
    "kernel.calls_per_forward_step",
    "kernel.calls_per_adjoint_step",
    "grid.implicit_solves_per_step",
    "grid.fft_per_forward_step",
    "grid.fft_per_tangent_step",
    "grid.fft_per_adjoint_step",
    "control.iterations",
    "control.forward_solves",
    "control.forward_solves_per_iter",
    "control.line_search.accept_ratio",
    "forward.trajectory_bytes",
    "linearized.tangent_bytes",
    "control.adjoint_bytes",
)

SMALL = (
    workloads.ForwardSolve(n=32, nt=20, name="forward-small"),
    workloads.Sensitivity(n=32, nt=20, name="sensitivity-small"),
    workloads.TwinPGD(step0=1e7, tol=1e-10, name="twin-small", max_iters=3),
)


@pytest.mark.parametrize("wl", SMALL, ids=lambda w: w.name)
def test_tracing_keeps_outputs_bit_identical_and_counts_repeat(wl, tmp_path):
    cfg_path, inputs = wl.write_inputs(tmp_path, seed=3)
    problem = wl.setup(cfg_path)
    tracer = Tracer()
    digests, counts = [], []
    # The first traced operation also computes the lazy kernel transforms;
    # they must not leak into the per-step counts.
    for op in (0, None, 1):
        if op is None:
            out = wl.run(problem, inputs)
        else:
            with tracer.recording(op):
                out = wl.run(problem, inputs)
            metrics = tracer.layer_metrics(op, wl.info(out))
            counts.append({name: metrics[name] for name in COUNTS})
        digests.append(wl.digest(out))
    assert digests[0] == digests[1] == digests[2]
    assert counts[0] == counts[1]
    assert counts[0]["forward.solve_calls"] >= 1


def test_wrappers_cover_every_import_site_and_are_removed():
    original = grid.solve_implicit_diffusion
    original_state = forward.solve_state
    sites = (grid, forward, linearized, control)
    with Tracer().recording(0):
        wrapped = {mod.solve_implicit_diffusion for mod in sites}
        assert len(wrapped) == 1 and original not in wrapped
        assert control.solve_state is forward.solve_state is not original_state
    assert all(mod.solve_implicit_diffusion is original for mod in sites)
    assert control.solve_state is forward.solve_state is original_state


def test_command_prints_result_line():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sensitivity-128",
         "--seed", "2", "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] == 1 and result["failed"] == 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}


@pytest.mark.parametrize("wl", SMALL[1:], ids=lambda w: w.name)
def test_phase_splits_keep_outputs_and_restore_bindings(wl, tmp_path):
    cfg_path, inputs = wl.write_inputs(tmp_path, seed=3)
    problem = wl.setup(cfg_path)
    bound = [(mod, mod.solve_implicit_diffusion) for mod in (forward, linearized, control)]
    bound += [(control, control.solve_state), (control, control.solve_adjoint_discrete)]
    splits = []
    split_out = wl.run(problem, inputs, lambda: splits.append(None))
    assert all(getattr(mod, fn.__name__) is fn for mod, fn in bound)
    plain_out = wl.run(problem, inputs)
    assert wl.digest(split_out) == wl.digest(plain_out)
    if isinstance(wl, workloads.Sensitivity):
        # Two implicit solves per step of each of the three sweeps, 20 steps a phase.
        assert len(splits) == 3 * wl.nt // 20
    else:
        # One split after every forward sweep and every adjoint sweep; the
        # adjoint also runs at the last iterate.
        tracer = Tracer()
        with tracer.recording(0):
            wl.run(problem, inputs)
        metrics = tracer.layer_metrics(0, wl.info(plain_out))
        assert len(splits) == metrics["control.forward_solves"] + plain_out.iterations + 1
