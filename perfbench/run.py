"""Run one workload of the morphoctl benchmark and print its metrics.

    python3 perfbench/run.py --workload twin-backtrack --seed 1 --seconds 50 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` of that checkout, never from an installed copy.  Workloads,
metrics and the layer map are described in ``perfbench/README.md``.

With ``--trace 0`` the run repeats the workload's operation, with a few
set-ups of the problem after each, while another such round fits in
``--seconds``.  A fixed reference computation runs around every phase of
an operation and every set-up, so each time can also be read in units of
the reference, which a shared host's drifting speed leaves alone.  It
reports the end-to-end metrics: the median operation time in reference
units, the median set-up time at the fastest host speed seen, and the
process's peak RSS; the wall times are printed beside them.  With
``--trace 1`` it alternates untraced and traced operations and reports the
per-layer metrics of the traced ones plus the tracing overhead.  Every
operation's output is checked outside the timed region; a failed check
counts the operation as failed, it does not stop the run.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
SETUPS_PER_ROUND = 10  # timed set-ups before the first operation and after each one
# Printed with the end-to-end metrics but not listed in BENCHMARK.json: wall
# times of the operation, which drift with the host (see ``untraced``).
PRINTED_ONLY_UNITS = {"run_s": "s", "cell_steps_per_s": "1/s"}


def metric_units(kind: str) -> dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


def import_program():
    """Import morphoctl from this checkout's src/ or exit nonzero."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import morphoctl
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import morphoctl from {src}: {exc}")
    if not Path(morphoctl.__file__).resolve().is_relative_to(src):
        sys.exit(f"perfbench: morphoctl was imported from {morphoctl.__file__}, not {src}")


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="ascii").strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text(encoding="ascii").strip()
        for line in (ROOT / ".git" / "packed-refs").read_text(encoding="ascii").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import numpy as np

    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = "absent"
    return {
        "numpy": np.__version__,
        "scipy": scipy_version,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "git_sha": git_sha(),
    }


class Tally:
    """Attempted and failed operations, with the reason for each failed check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def record(self, errors: list[str]) -> None:
        self.attempted += 1
        if errors:
            self.failed += 1
            self.messages.extend(errors)


def another_fits(start: float, seconds: float, durations: list[float]) -> bool:
    """Whether one more round, as long as the last one, ends within ``seconds``."""
    return not durations or time.perf_counter() - start + durations[-1] <= seconds


class Reference:
    """A fixed computation that gauges how fast the host runs right now.

    FFT round trips and a clip on an ``n`` x ``n`` array, the operations
    the solvers spend their time in, at the workload's grid size.  It is
    the benchmark's own code, so a change to the program never changes it.
    """

    def __init__(self, n: int, repeats: int):
        import numpy as np

        self.np, self.repeats = np, repeats
        self.a = np.random.default_rng(0).standard_normal((n, n))
        self.fastest = float("inf")

    def __call__(self) -> float:
        np, a = self.np, self.a
        t0 = time.perf_counter()
        x = a
        for _ in range(self.repeats):
            x = np.clip(a + 0.1 * np.fft.irfft2(np.fft.rfft2(x) * 0.5, s=a.shape), -1.0, 1.0)
        dt = time.perf_counter() - t0
        self.fastest = min(self.fastest, dt)
        return dt


def timed_run(wl, problem, inputs, recording=None, reference=None):
    """One operation: (output or None when the solver blew up, phases, errors).

    A workload's ``run`` calls its ``split`` argument between the phases of
    the operation (stretches of its sweeps); an operation that never calls
    it is one phase.  Each phase is a pair (seconds, seconds of the reference
    computation, the mean of its runs just before and just after the
    phase); the reference runs are not part of any phase's time.  Without
    a reference the second item is 0.
    """
    from morphoctl.errors import NonFinite

    gauge = reference or (lambda: 0.0)
    refs, times = [gauge()], []
    t0 = time.perf_counter()

    def split():
        nonlocal t0
        times.append(time.perf_counter() - t0)
        refs.append(gauge())
        t0 = time.perf_counter()

    try:
        with recording or contextlib.nullcontext():
            out = wl.run(problem, inputs, split)
    except NonFinite as exc:
        out, errors = None, [str(exc)]
    else:
        errors = []
    split()
    return out, [(t, (a + b) / 2) for t, a, b in zip(times, refs, refs[1:])], errors


def relative(phases) -> float:
    """An operation's time in units of the reference computation."""
    return sum(t / ref for t, ref in phases)


def time_setups(wl, cfg_path, count, reference, setups):
    """Set the problem up ``count`` times, appending (seconds, reference seconds)."""
    for _ in range(count):
        before = reference()
        t0 = time.perf_counter()
        problem = wl.setup(cfg_path)
        dt = time.perf_counter() - t0
        setups.append((dt, (before + reference()) / 2))
        del problem  # free it before timing the next set-up


def untraced(wl, cfg_path, inputs, seconds, tally):
    """Alternate operations and set-ups for ``seconds``; the end-to-end metrics.

    A shared host's speed drifts by up to 2x, in stretches from a fraction
    of a second to minutes, so wall times of one run and the next disagree
    by more than any useful bound.  The reference computation, run right
    before and after every phase, slows down with the host; each phase's
    time over it moves far less.  ``run_rel`` is therefore an operation's time in
    reference units, the median over the run's operations.  ``setup_s``
    stays in seconds: the median set-up time in reference units, times the
    fastest the reference ran.  That is the median set-up time at the
    fastest speed the host reached in the run; set-ups are spread over the
    whole run, between the operations, so that speed is seen.
    """
    problem = wl.setup(cfg_path)  # warm-up: imports and caches
    reference = Reference(problem.grid.nx, wl.ref_repeats)
    setups = []
    time_setups(wl, cfg_path, SETUPS_PER_ROUND, reference, setups)

    rounds, ops, work = [], [], 0
    start = time.perf_counter()
    while another_fits(start, seconds, rounds):
        round_start = time.perf_counter()
        out, phases, errors = timed_run(wl, problem, inputs, reference=reference)
        if out is not None:
            ops.append(phases)
            work = wl.useful_cell_steps(problem, out)
            errors = wl.check(problem, out)
        tally.record(errors)
        del out  # free the trajectory before the next operation allocates its own
        time_setups(wl, cfg_path, SETUPS_PER_ROUND, reference, setups)
        rounds.append(time.perf_counter() - round_start)

    run_times = [sum(t for t, _ in phases) for phases in ops]
    print(f"  phases per operation {len(ops[0]) if ops else 0}")
    samples = {
        "setup_s": [t for t, _ in setups],
        "run_rel": [relative(phases) for phases in ops],
        "run_s": run_times,
        "cell_steps_per_s": [work / t for t in run_times],
    }
    metrics = {name: statistics.median(v) if v else 0.0 for name, v in samples.items()}
    metrics["setup_s"] = statistics.median(t / ref for t, ref in setups) * reference.fastest
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return metrics, samples


def traced(wl, cfg_path, inputs, seconds, tally, spans_path):
    """Alternate untraced and traced operations; per-layer medians over traced ones."""
    from tracer import Tracer

    tracer = Tracer()
    with tracer.recording("setup"):
        problem = wl.setup(cfg_path)
    config_self = tracer.layer_metrics("setup", {})["config.self_s"]

    plain_times, traced_times, per_op, pairs = [], [], [], []
    start = time.perf_counter()
    while another_fits(start, seconds, pairs):
        pair_start = time.perf_counter()
        out, phases, errors = timed_run(wl, problem, inputs)
        expected = None
        if out is not None:
            plain_times.append(sum(t for t, _ in phases))
            expected = wl.digest(out)
            errors = wl.check(problem, out)
        tally.record(errors)
        del out
        op = len(pairs)
        out, phases, errors = timed_run(wl, problem, inputs, tracer.recording(op))
        if out is not None:
            traced_times.append(sum(t for t, _ in phases))
            errors = wl.check(problem, out)
            if expected is not None and wl.digest(out) != expected:
                errors.append("traced output differs from untraced output")
            per_op.append(tracer.layer_metrics(op, wl.info(out)))
        tally.record(errors)
        del out
        pairs.append(time.perf_counter() - pair_start)
    tracer.write_csv(spans_path)

    names = per_op[0] if per_op else ()
    metrics = {name: statistics.median(m[name] for m in per_op) for name in names}
    metrics["config.self_s"] = config_self
    if traced_times and plain_times:
        metrics["trace_overhead_frac"] = min(traced_times) / min(plain_times) - 1.0
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    # Single-threaded numerics; must be set before numpy is imported.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    import_program()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        choices = ", ".join(workloads.WORKLOADS)
        ap.error(f"unknown workload {args.workload!r}; choose from {choices}")
    wl = workloads.WORKLOADS[args.workload]
    print(f"workload {wl.name}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print("environment " + json.dumps(environment()))

    OUT_DIR.mkdir(exist_ok=True)
    tally = Tally()
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as work:
        cfg_path, inputs = wl.write_inputs(Path(work), args.seed)
        if args.trace:
            spans_path = OUT_DIR / f"spans-{wl.name}-seed{args.seed}.csv"
            values = traced(wl, cfg_path, inputs, args.seconds, tally, spans_path)
            units = metric_units("per_layer")
            for name, unit in units.items():
                print(f"  {name:36s} {values.get(name, 0.0):.6g} {unit}")
            print(f"  spans written to {spans_path.relative_to(ROOT)}")
        else:
            values, samples = untraced(wl, cfg_path, inputs, args.seconds, tally)
            units = metric_units("end_to_end")
            for name, unit in {**units, **PRINTED_ONLY_UNITS}.items():
                s = samples.get(name)
                extra = (
                    f"  n={len(s)}, min {min(s):.6g}, "
                    f"median {statistics.median(s):.6g}, max {max(s):.6g}"
                    if s else ""
                )
                print(f"  {name:18s} {values[name]:.6g} {unit}{extra}")

    for message in tally.messages:
        print(f"  check failed: {message}")
    print(f"  fail_ratio {tally.failed}/{tally.attempted} = {tally.failed / tally.attempted:.3g}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {n: {"value": values.get(n, 0.0), "unit": u} for n, u in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
