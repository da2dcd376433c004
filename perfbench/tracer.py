"""Outside-in tracer for the morphoctl benchmark.

The tracer records spans around calls into the public functions of the
``config``, ``forward``, ``linearized``, ``control``, ``kernel`` and
``grid`` modules without touching their source.  While a recording is
open, each traced function is replaced by a wrapper at every place its
function object is bound: the defining module, every morphoctl module that
imported it by name, and the package namespace.  Patching only the
defining module would miss most calls, because ``forward``, ``linearized``
and ``control`` call ``solve_implicit_diffusion`` through their own
by-name imports, and ``control`` and ``config`` do the same with
``solve_state``.

Calls to the FFT functions of ``numpy.fft`` (and of ``scipy.fft`` once the
program has imported it) are counted, not spanned, and each count goes to
the innermost sweep span that was open when the transform ran.  The lazy
kernel transforms (the cached ``Kernel._*_hat`` properties) run inside a
pseudo-sweep of their own, so they never enter the per-step counts.

Spans stay in memory as ``[name, start, end, parent, op, sweep]`` lists
(``parent`` is an index into the span list, ``-1`` for a root) and are
written out by :meth:`Tracer.write_csv` when the run ends.  The program is
single-threaded, so one stack of open spans is enough and there is no wait
or queue time to record.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter
from contextlib import contextmanager

import numpy as np

# (module, attribute, span name) of every traced module-level function.
FUNCTIONS = (
    ("morphoctl.config", "load_config", "config.load_config"),
    ("morphoctl.config", "build_problem", "config.build_problem"),
    ("morphoctl.forward", "solve_state", "forward.solve_state"),
    ("morphoctl.forward", "step_state", "forward.step_state"),
    ("morphoctl.linearized", "solve_linearized", "linearized.solve_linearized"),
    ("morphoctl.linearized", "step_linearized", "linearized.step_linearized"),
    ("morphoctl.control", "pgd_optimize", "control.pgd_optimize"),
    ("morphoctl.control", "solve_adjoint_discrete", "control.solve_adjoint_discrete"),
    ("morphoctl.control", "cost_parts", "control.cost_parts"),
    ("morphoctl.control", "stationarity_residual", "control.stationarity_residual"),
    ("morphoctl.control", "reduced_gradient", "control.reduced_gradient"),
    ("morphoctl.control", "project_admissible", "control.project_admissible"),
    ("morphoctl.kernel", "build_kernel", "kernel.build_kernel"),
    ("morphoctl.grid", "solve_implicit_diffusion", "grid.solve_implicit_diffusion"),
)
# (module, class, method, span name) of every traced method.
METHODS = (
    ("morphoctl.kernel", "Kernel", "grad_conv", "kernel.grad_conv"),
    ("morphoctl.kernel", "Kernel", "grad_conv_sum", "kernel.grad_conv_sum"),
    ("morphoctl.kernel", "Kernel", "conv_j", "kernel.conv_j"),
)
# Cached properties holding the one-time kernel transforms.
LAZY = ("_j_hat", "_gx_hat", "_gy_hat")
LAZY_SPAN = "kernel.lazy_transform"

# Sweep spans: the span name and the sweep kind FFT counts are filed under,
# plus the fields of the returned object whose arrays the sweep stores.
SWEEPS = {
    "forward.solve_state": ("forward", ("m", "phi")),
    "linearized.solve_linearized": ("tangent", ("phi1", "phi2")),
    "control.solve_adjoint_discrete": ("adjoint", ("gamma1", "gamma2")),
    LAZY_SPAN: ("lazy", ()),
}
KERNEL_CALLS = ("kernel.grad_conv", "kernel.grad_conv_sum", "kernel.conv_j")
FFT_FUNCS = (
    "fft", "ifft", "rfft", "irfft", "fft2", "ifft2",
    "rfft2", "irfft2", "fftn", "ifftn", "rfftn", "irfftn",
)

NAME, START, END, PARENT, OP, SWEEP = range(6)


class Tracer:
    """In-memory span and FFT-count recorder; see the module docstring."""

    def __init__(self):
        self.spans: list[list] = []
        self.fft: Counter = Counter()  # (op, sweep kind) -> transforms
        self.sweep_info: dict[int, tuple[int, int]] = {}  # span -> (steps, bytes)
        self._stack: list[int] = []
        self._sweeps: list[str] = []
        self._op = None

    # -- recording ---------------------------------------------------------

    @contextmanager
    def recording(self, op):
        """Install the wrappers and record one operation under the id ``op``.

        The whole operation is a root span named ``op``; the wrappers are
        removed again on exit, so code outside the block runs untraced.
        """
        patches = self._install()
        self._op = op
        root = self._open("op")
        try:
            yield
        finally:
            self._close(root)
            self._op = None
            for owner, attr, original in reversed(patches):
                setattr(owner, attr, original)

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        sweep = self._sweeps[-1] if self._sweeps else ""
        span = [name, 0.0, 0.0, parent, self._op, sweep]
        self.spans.append(span)
        self._stack.append(idx)
        if name in SWEEPS:
            self._sweeps.append(SWEEPS[name][0])
        span[START] = time.perf_counter()
        return idx

    def _close(self, idx: int) -> None:
        span = self.spans[idx]
        span[END] = time.perf_counter()
        self._stack.pop()
        if span[NAME] in SWEEPS:
            self._sweeps.pop()

    def _span(self, name: str, fn):
        fields = SWEEPS[name][1] if name in SWEEPS else ()

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if fields:
                nbytes = sum(getattr(out, f).nbytes for f in fields)
                self.sweep_info[idx] = (out.params.nt, nbytes)
            return out

        return traced

    def _counted(self, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.fft[(self._op, self._sweeps[-1] if self._sweeps else "")] += 1
            return fn(*args, **kwargs)

        return counted

    def _install(self) -> list[tuple]:
        patches: list[tuple] = []
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == "morphoctl" or n.startswith("morphoctl."))
        ]

        def rebind(original, replacement):
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        patches.append((mod, key, original))
                        setattr(mod, key, replacement)

        for modname, attr, name in FUNCTIONS:
            original = getattr(sys.modules[modname], attr)
            rebind(original, self._span(name, original))
        for modname, clsname, attr, name in METHODS:
            cls = getattr(sys.modules[modname], clsname)
            original = cls.__dict__[attr]
            patches.append((cls, attr, original))
            setattr(cls, attr, self._span(name, original))
        kernel_cls = sys.modules["morphoctl.kernel"].Kernel
        for attr in LAZY:
            prop = kernel_cls.__dict__.get(attr)
            if isinstance(prop, functools.cached_property):
                patches.append((prop, "func", prop.func))
                prop.func = self._span(LAZY_SPAN, prop.func)
        fft_modules = [np.fft] + ([sys.modules["scipy.fft"]] if "scipy.fft" in sys.modules else [])
        for fmod in fft_modules:
            for attr in FFT_FUNCS:
                original = getattr(fmod, attr, None)
                if original is None:
                    continue
                counted = self._counted(original)
                patches.append((fmod, attr, original))
                setattr(fmod, attr, counted)
                rebind(original, counted)
        return patches

    # -- output ------------------------------------------------------------

    def write_csv(self, path) -> None:
        """All spans, one per line, times in seconds from the first span."""
        t0 = self.spans[0][START] if self.spans else 0.0
        with open(path, "w", encoding="ascii") as fh:
            fh.write("idx,op,name,start_s,end_s,parent,sweep\n")
            for i, s in enumerate(self.spans):
                fh.write(
                    f"{i},{s[OP]},{s[NAME]},{s[START] - t0:.9f},{s[END] - t0:.9f},"
                    f"{s[PARENT]},{s[SWEEP]}\n"
                )

    def layer_metrics(self, op, info: dict) -> dict[str, float]:
        """Per-layer metrics of one recorded operation.

        ``info`` carries what only the operation's result knows:
        ``iterations`` and ``accepted`` (line-search trials accepted) for
        the optimizer workloads.
        """
        spans = self.spans
        idxs = [i for i, s in enumerate(spans) if s[OP] == op]

        def dur(i):
            return spans[i][END] - spans[i][START]

        wall = dur(next(i for i in idxs if spans[i][NAME] == "op"))
        child_time: Counter = Counter()
        for i in idxs:
            if spans[i][PARENT] >= 0:
                child_time[spans[i][PARENT]] += dur(i)

        def layer(i):
            return spans[i][NAME].split(".", 1)[0]

        def named(name):
            return [i for i in idxs if spans[i][NAME] == name]

        def us(name, q):
            d = [dur(i) for i in named(name)]
            return float(np.percentile(d, q)) * 1e6 if d else 0.0

        def self_s(lay):
            return sum(dur(i) - child_time[i] for i in idxs if layer(i) == lay)

        def busy(lay):
            # Outermost spans of the layer, so nested calls are not counted twice.
            total = sum(
                dur(i) for i in idxs
                if layer(i) == lay and (spans[i][PARENT] < 0 or layer(spans[i][PARENT]) != lay)
            )
            return total / wall

        steps: Counter = Counter()
        nbytes: Counter = Counter()
        per_step: dict[str, list[float]] = {"forward": [], "adjoint": []}
        for i in idxs:
            if i in self.sweep_info:
                kind = SWEEPS[spans[i][NAME]][0]
                nt, b = self.sweep_info[i]
                steps[kind] += nt
                nbytes[kind] = max(nbytes[kind], b)
                if kind in per_step:
                    per_step[kind].append(dur(i) / nt)

        def ratio(num, den):
            return num / den if den else 0.0

        def kernel_calls(kind):
            return sum(
                1 for i in idxs if spans[i][NAME] in KERNEL_CALLS and spans[i][SWEEP] == kind
            )

        implicit = named("grid.solve_implicit_diffusion")
        sweep_steps = steps["forward"] + steps["tangent"] + steps["adjoint"]
        in_sweeps = sum(1 for i in implicit if spans[i][SWEEP] in ("forward", "tangent", "adjoint"))
        fwd_step = float(np.median(per_step["forward"])) if per_step["forward"] else 0.0
        adj_step = float(np.median(per_step["adjoint"])) if per_step["adjoint"] else 0.0

        pgd = set(named("control.pgd_optimize"))
        solves = sum(1 for i in named("forward.solve_state") if spans[i][PARENT] in pgd)
        iterations = info.get("iterations", 0)

        return {
            "forward.step_us.p50": us("forward.step_state", 50),
            "forward.step_us.p90": us("forward.step_state", 90),
            "forward.self_s": self_s("forward"),
            "forward.busy_frac": busy("forward"),
            "forward.solve_calls": len(named("forward.solve_state")),
            "kernel.grad_conv_us.p50": us("kernel.grad_conv", 50),
            "kernel.grad_conv_sum_us.p50": us("kernel.grad_conv_sum", 50),
            "kernel.calls_per_forward_step": ratio(kernel_calls("forward"), steps["forward"]),
            "kernel.calls_per_adjoint_step": ratio(kernel_calls("adjoint"), steps["adjoint"]),
            "kernel.busy_frac": busy("kernel"),
            "grid.implicit_solve_us.p50": us("grid.solve_implicit_diffusion", 50),
            "grid.implicit_solves_per_step": ratio(in_sweeps, sweep_steps),
            "grid.fft_per_forward_step": ratio(self.fft[(op, "forward")], steps["forward"]),
            "grid.fft_per_tangent_step": ratio(self.fft[(op, "tangent")], steps["tangent"]),
            "grid.fft_per_adjoint_step": ratio(self.fft[(op, "adjoint")], steps["adjoint"]),
            "grid.busy_frac": busy("grid"),
            "linearized.step_us.p50": us("linearized.step_linearized", 50),
            "linearized.step_us.p90": us("linearized.step_linearized", 90),
            "linearized.self_s": self_s("linearized"),
            "linearized.busy_frac": busy("linearized"),
            "control.adjoint_step_us.p50": adj_step * 1e6,
            "control.adjoint_to_forward_step": ratio(adj_step, fwd_step),
            "control.adjoint.busy_frac": (
                sum(dur(i) for i in named("control.solve_adjoint_discrete")) / wall
            ),
            "control.iterations": iterations,
            "control.forward_solves": solves,
            "control.forward_solves_per_iter": ratio(solves, iterations),
            "control.line_search.accept_ratio": ratio(info.get("accepted", 0), max(solves - 1, 0)),
            "control.reductions_s": sum(
                dur(i) for i in idxs
                if spans[i][NAME] in ("control.cost_parts", "control.stationarity_residual")
            ),
            "control.self_s": self_s("control"),
            "config.self_s": self_s("config"),
            "forward.trajectory_bytes": nbytes["forward"],
            "linearized.tangent_bytes": nbytes["tangent"],
            "control.adjoint_bytes": nbytes["adjoint"],
        }
