"""Command line interface.

Subcommands: simulate, optimize, gradcheck, taylor, verify, kernel-info.
Every command exits 0 on success and nonzero on any failing check or
error, with failures enumerated on stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys

from . import control as ctl
from . import forward as fwd
from . import linearized as lin
from .config import build_problem, load_config, realize_field
from .errors import NonFinite, ParseError, ValidationError
from .fieldio import write_csv, write_snapshot
from .grid import h1, integral, l2, time_values
from .kernel import kernel_report
from .verify import GRADCHECK_TOL, TAYLOR_ORDER_TOL, gradient_check_table, run_verify, target_for


def _load(args):
    """Parse the config and apply the overrides, without building it.

    main calls it once and hands the config to the command. The command
    builds the problem once, and that build is the check: an invalid
    config, overrides included, exits 2 from there.
    """
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    if args.out_dir is not None:
        cfg = dataclasses.replace(cfg, out_dir=args.out_dir)
    return cfg


def _build(cfg, need_target: bool):
    """build_problem, then one stderr line if dt exceeds the advisory drift bound."""
    problem = build_problem(cfg, need_target)
    dt, bound = problem.params.dt, problem.params.dt_stability_bound()
    if dt > bound:
        print(f"warning: dt={dt} exceeds the conservative drift bound {bound:.3e}; "
              "blow-up is detected at runtime", file=sys.stderr)
    return problem


def _series_rows(g, traj):
    """series.csv rows: the step, its time and the per-slice values of the pair (m, phi)."""

    def values(g, m, phi):
        viol = fwd.ordering_violations(g, m, phi)
        return integral(g, m), integral(g, phi), l2(g, m), l2(g, phi), h1(g, m), h1(g, phi), *viol

    rows = time_values(g, values, traj.m, traj.phi)
    return ((n, n * traj.params.dt, *row) for n, row in enumerate(rows))


def cmd_simulate(args, cfg) -> int:
    problem = _build(cfg, need_target=False)
    out = cfg.out_dir
    os.makedirs(out, exist_ok=True)
    traj = fwd.solve_state(problem.init, problem.theta, problem.params)

    g = problem.grid
    write_csv(
        os.path.join(out, "series.csv"),
        "n,t,mass_m,mass_phi,l2_m,l2_phi,h1_m,h1_phi,viol_m,viol_phi",
        _series_rows(g, traj),
    )
    stride = cfg.snapshot_stride
    if stride > 0:
        nt, dt = problem.params.nt, problem.params.dt
        for n in sorted({*range(0, nt + 1, stride), nt}):
            write_snapshot(os.path.join(out, f"m_{n:06d}.mcf"), g, n * dt, traj.m[n])
            write_snapshot(os.path.join(out, f"phi_{n:06d}.mcf"), g, n * dt, traj.phi[n])
    print(f"simulate: {problem.params.nt} steps written to {out}")
    return 0


def cmd_optimize(args, cfg) -> int:
    problem = _build(cfg, need_target=True)
    out = cfg.out_dir
    os.makedirs(out, exist_ok=True)
    res = ctl.pgd_optimize(
        problem.init, problem.control(), problem.phi_d, problem.params, cfg.delta, problem.opt
    )
    # step_history is one entry shorter: the last iterate takes no step.
    write_csv(
        os.path.join(out, "opt_history.csv"),
        "iter,cost,misfit,reg,stationarity,step",
        zip(
            range(len(res.cost_history)), res.cost_history, res.misfit_history,
            res.reg_history, res.stationarity_history, res.step_history + [float("nan")],
        ),
    )
    for n in range(problem.params.nt):
        write_snapshot(
            os.path.join(out, f"theta_{n:06d}.mcf"),
            problem.grid, n * problem.params.dt, res.theta_opt[n],
        )
    with open(os.path.join(out, "result.txt"), "w", encoding="ascii") as fh:
        fh.write(f"termination: {res.termination}\n")
        fh.write(f"iterations: {res.iterations}\n")
        fh.write(f"forward_solves: {res.forward_solves}\n")
        fh.write(f"tangent_solves: {res.tangent_solves}\n")
        fh.write(f"final_cost: {res.cost_history[-1]!r}\n")
        fh.write(f"final_misfit: {res.misfit_history[-1]!r}\n")
        fh.write(f"final_stationarity: {res.stationarity_history[-1]!r}\n")
    print(
        f"optimize: {res.termination} after {res.iterations} iterations, "
        f"cost {res.cost_history[0]:.6e} -> {res.cost_history[-1]:.6e}"
    )
    if res.termination == "line_search_failed":
        print("optimize: line search failed before reaching tolerance", file=sys.stderr)
        return 1
    return 0


def cmd_gradcheck(args, cfg) -> int:
    problem = _build(cfg, need_target=False)
    adj = ctl.solve_adjoint_discrete(  # the base run is freed before the table's own solves
        fwd.solve_state(problem.init, problem.theta, problem.params), target_for(problem)
    )
    table = gradient_check_table(problem, adj)
    print("direction,fd,adjoint,rel_error")
    for i, fd_val, adj_val, rel in table:
        print(f"{i},{fd_val!r},{adj_val!r},{rel!r}")
    worst = max(row[3] for row in table)
    if worst > GRADCHECK_TOL:
        print(f"gradcheck failed: worst relative error {worst:.3e} > {GRADCHECK_TOL}",
              file=sys.stderr)
        return 1
    return 0


def cmd_taylor(args, cfg) -> int:
    problem = _build(cfg, need_target=False)
    try:  # the direction draws on the control.theta noise stream; errors name the flag
        direction = realize_field(problem.grid, args.direction, cfg.seed, "control.theta")
    except ValidationError as exc:
        raise ValidationError("--direction", exc.reason) from exc
    h = fwd.control_array(direction, problem.params)
    base = fwd.solve_state(problem.init, problem.theta, problem.params)
    out = lin.taylor_test(problem.init, base, h)
    print("eps,remainder,first_order_quotient")
    for e, r, q in zip(out["eps"], out["remainders"], out["first_order_quotients"]):
        print(f"{e!r},{r!r},{q!r}")
    print("orders," + ",".join(repr(o) for o in out["orders"]))
    worst = max(abs(o - 2.0) if math.isfinite(o) else math.inf for o in out["orders"])
    if worst > TAYLOR_ORDER_TOL:
        print(f"taylor failed: orders deviate from 2 by {worst:.3f}", file=sys.stderr)
        return 1
    return 0


def cmd_verify(args, cfg) -> int:
    report = run_verify(cfg)
    out = cfg.out_dir
    os.makedirs(out, exist_ok=True)
    report.to_csv(os.path.join(out, "verify_report.csv"))
    for line in report.lines():
        print(line)
    if not report.all_passed:
        for r in report.rows:
            if not r.passed:
                print(f"verify failed: {r.name} ({r.note})" if r.note
                      else f"verify failed: {r.name}", file=sys.stderr)
        return 1
    return 0


def cmd_kernel_info(args, cfg) -> int:
    problem = _build(cfg, need_target=False)
    for key, value in kernel_report(problem.params.kernel).items():
        print(f"{key}={value!r}" if isinstance(value, float) else f"{key}={value}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="morphoctl",
        description="Nonlocal two-phase/solvent solver with adjoint optimal control",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **extra):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out-dir", default=None)
        p.add_argument("--seed", type=int, default=None)
        for flag, kw in extra.items():
            p.add_argument(flag, **kw)
        p.set_defaults(fn=fn)

    add("simulate", cmd_simulate)
    add("optimize", cmd_optimize)
    add("gradcheck", cmd_gradcheck)
    add("taylor", cmd_taylor, **{"--direction": {"default": "cosine:1,1,1"}})
    add("verify", cmd_verify)
    add("kernel-info", cmd_kernel_info)

    args = parser.parse_args(argv)
    try:
        return args.fn(args, _load(args))
    except (ParseError, ValidationError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NonFinite as exc:
        print(f"solver blow-up: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"memory error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
