"""Command-line entry point: generation, solving, simulation, sweeps, and
diagnostics as composable subcommands.

Every file-producing command writes a manifest next to each output recording
the command, flags, seeds, component versions, and the instance file's
sha256, so a run can be replayed to identical data outputs (timestamps aside).

Exit codes: 0 ok, 2 usage error (a flag value the command cannot run
with, a size whose arrays cannot be allocated or that the exact oracle's
size guards refuse, an output that is a directory, the --instance file or
another output, or that cannot be written, reported on one `error:` line),
3 validation failure (also an instance file that cannot be read or parsed,
one whose arm_type is not a non-empty list of indices into its arms or
leaves a stored arm unreferenced, and a relaxation the solver cannot
certify or whose solution fails the feasibility audit, reported on one
`relaxation solve failed:` line), 4 feasibility assertion, 5 under
`diagnose --strict` when an arm does not mix within --t-cap steps.

Every command that solves the relaxation (solve, simulate, sweep, diagnose
and oracle-check) plans through simulator.PolicyBundle.prepare, the one
path that solves and audits it. Files are read with model.read_file. Each
command writes all its outputs and their manifests in one model.writing()
block (_publish, or generate's own block): they are renamed into place only
after every one of them is whole, so a command that fails leaves all of
them as they were.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import math
import os
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .lp_relax import LpSolveError
from .model import (COST_ACTION_ONLY, COST_STATE_ACTION, FULLY_HETEROGENEOUS,
                    TYPED, GeneratorConfig, WcmdpInstance, generate, read_file,
                    validate, writing)
from .policies import OracleSizeError, exact_oracle
from .simulator import (PolicyBundle, SimConfig, _check_sweep, results_csv,
                        results_row, simulate, sweep)
from . import lyapunov

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VALIDATION = 3
EXIT_FEASIBILITY = 4
EXIT_ASSUMPTION = 5

_FAMILY_FLAGS = {"fully-het": FULLY_HETEROGENEOUS, "typed": TYPED}
_COST_FLAGS = {"state-action": COST_STATE_ACTION, "action-only": COST_ACTION_ONLY}


def _manifest(args, instance_hash: str | None = None,
              solver: dict | None = None) -> str:
    """The manifest text of a run of `args.command`; `solver`, when given,
    records the solver statistics and audit residuals of the run."""
    manifest = {
        "command": args.command,
        "flags": {k: v for k, v in vars(args).items() if not callable(v)},
        "versions": {
            "wcmdp": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "python": sys.version.split()[0],
        },
        "instance_hash": instance_hash,
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }
    if solver is not None:
        manifest["solver"] = solver
    return json.dumps(manifest, indent=2, default=str)


def _publish(args, outputs, instance_hash: str | None = None,
             solver: dict | None = None) -> None:
    """Write each (path, chunks) in `outputs` and its <path>.manifest.json
    in one writing() block, so either all of them reach disk or none."""
    manifest = _manifest(args, instance_hash, solver)
    with writing() as write:
        for path, chunks in outputs:
            write(path, chunks)
            write(f"{path}.manifest.json", [manifest])


@contextlib.contextmanager
def _usage_errors():
    """Report a ValueError from checking the flags, or an oracle size error,
    as one `error:` line and exit with the usage code."""
    try:
        yield
    except (ValueError, OracleSizeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE) from None


def _generator_config(args, num_arms: int) -> GeneratorConfig:
    return GeneratorConfig(
        seed=args.seed,
        num_arms=num_arms,
        num_states=args.states,
        num_actions=args.actions,
        num_constraints=args.k,
        family=_FAMILY_FLAGS[args.family],
        num_types=args.types,
        cost_mode=_COST_FLAGS[args.cost_mode],
    )


def _sim_config(args, policy: str) -> SimConfig:
    config = SimConfig(horizon=args.horizon, replications=args.reps,
                       batch_size=args.batch_size, seed=args.sim_seed,
                       policy=policy)
    config.check()
    return config


def _check_outputs(args) -> None:
    """Raise ValueError for an output or manifest whose directory does not
    exist, that is a directory, or that is --instance or another output."""
    inst = getattr(args, "instance", None)
    seen = {os.path.realpath(inst): "the --instance file"} if inst else {}
    for flag in ("out", "svg"):
        path = getattr(args, flag, None)
        if path is None:
            continue
        if not Path(path).parent.is_dir():
            raise ValueError(f"cannot write {path}: no directory "
                             f"{Path(path).parent}")
        for target in (path, f"{path}.manifest.json"):
            if Path(target).is_dir():
                raise ValueError(f"cannot write {target}: it is a directory")
            key = os.path.realpath(target)
            if key in seen:
                raise ValueError(f"cannot write {target}: it is {seen[key]}")
            seen[key] = f"already written for --{flag}"


def _add_generation_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--family", choices=sorted(_FAMILY_FLAGS), default="fully-het")
    p.add_argument("--states", type=int, default=10)
    p.add_argument("--actions", type=int, default=4)
    p.add_argument("--k", type=int, default=4, help="number of budget constraints")
    p.add_argument("--types", type=int, default=1, help="types (typed family)")
    p.add_argument("--cost-mode", choices=sorted(_COST_FLAGS),
                   default="state-action")
    p.add_argument("--seed", type=int, default=0)


def _add_sim_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--horizon", type=int, default=20000)
    p.add_argument("--reps", type=int, default=4)
    p.add_argument("--batch-size", type=int, default=4000)
    p.add_argument("--sim-seed", type=int, default=0)


def _load_instance(path: str) -> tuple[WcmdpInstance, str]:
    """The validated instance in the file and the sha256 of the file."""
    try:
        text, digest = read_file(path)
        instance = WcmdpInstance.from_json(text)
    except (OSError, ValueError, RecursionError) as exc:
        # RecursionError: JSON nested deeper than the parser's stack
        print(f"invalid instance: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_VALIDATION) from None
    problems = validate(instance)
    if problems:
        for msg in problems:
            print(f"invalid instance: {msg}", file=sys.stderr)
        raise SystemExit(EXIT_VALIDATION)
    return instance, digest


def cmd_generate(args) -> int:
    with _usage_errors():
        instance = generate(_generator_config(args, args.n))
    problems = validate(instance)
    if problems:
        for msg in problems:
            print(f"validation: {msg}", file=sys.stderr)
        return EXIT_VALIDATION
    with writing() as write:
        instance_hash = write(args.out, instance.json_chunks())
        write(f"{args.out}.manifest.json", [_manifest(args, instance_hash)])
    print(f"wrote {args.out}: N={instance.num_arms} S={instance.num_states} "
          f"A={instance.num_actions} K={instance.num_constraints}")
    return EXIT_OK


def cmd_solve(args) -> int:
    instance, instance_hash = _load_instance(args.instance)
    bundle = PolicyBundle.prepare(instance)
    solution = bundle.solution
    solver = {**dataclasses.asdict(solution.stats),
              "audit": dataclasses.asdict(bundle.audit)}
    _publish(args, [(args.out, [json.dumps(solution.to_json_dict())])],
             instance_hash, solver)
    print(f"R_rel = {solution.objective:.10f}")
    return EXIT_OK


def cmd_simulate(args) -> int:
    with _usage_errors():
        configs = [_sim_config(args, p) for p in args.policies.split(",")]
    instance, instance_hash = _load_instance(args.instance)
    bundle = PolicyBundle.prepare(instance, seed=args.sim_seed)
    results = [simulate(instance, bundle, config) for config in configs]
    rows = [results_row(r, "file", args.sim_seed, instance.num_arms)
            for r in results]
    if any(row["violations"] for row in rows):
        print("budget violation detected", file=sys.stderr)
        return EXIT_FEASIBILITY
    _publish(args, [(args.out, [results_csv(rows)])], instance_hash)
    for r in results:
        print(f"{r.config.policy}: avg={r.avg_reward_per_arm:.6f} "
              f"ratio={r.optimality_ratio:.4f} ci={r.ci_halfwidth:.2e}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    policies = args.policies.split(",")
    with _usage_errors():
        config = _sim_config(args, policies[0])
        n_values = [int(v) for v in args.n_list.split(",")]
        template = _generator_config(args, n_values[0])
        _check_sweep(template, n_values, config, policies)
    rows = sweep(template, n_values, config, policies=policies)
    if any(r["violations"] for r in rows):
        print("budget violation detected during sweep", file=sys.stderr)
        return EXIT_FEASIBILITY
    outputs = [(args.out, [results_csv(rows)])]
    if args.svg:
        outputs.append((args.svg, [ratio_chart_svg(rows)]))
    _publish(args, outputs)
    for row in rows:
        print(f"N={row['N']:>5} {row['policy']:>4} ratio={row['ratio']:.4f} "
              f"gap*sqrtN={row['gap_sqrtN']:.4f}")
    return EXIT_OK


def cmd_diagnose(args) -> int:
    with _usage_errors():
        if args.probe_drift and args.samples < 0:
            raise ValueError(f"--samples {args.samples} is negative")
        if args.probe_drift and args.sim_seed < 0:
            raise ValueError(f"--sim-seed {args.sim_seed} is negative")
        if args.t_cap < 0:
            raise ValueError(f"--t-cap {args.t_cap} is negative")
    instance, instance_hash = _load_instance(args.instance)
    policy = PolicyBundle.prepare(instance).policy
    diag = lyapunov.chain_diagnostics(instance, policy, t_cap=args.t_cap)
    if not diag.ok and args.strict:
        print(f"assumption failure: arms {diag.failing_arms()} do not mix "
              f"within {args.t_cap} steps", file=sys.stderr)
        return EXIT_ASSUMPTION
    payload = diag.to_json_dict()
    if args.probe_drift and diag.ok:
        rng = np.random.default_rng(args.sim_seed)
        probe = lyapunov.drift_probe(instance, policy, diag,
                                     np.arange(instance.num_arms),
                                     args.samples, rng)
        payload["probes"] = [{**dataclasses.asdict(probe),
                              "within_bound": probe.within_bound}]
    _publish(args, [(args.out, [json.dumps(payload, indent=2)])],
             instance_hash)
    if diag.ok:
        print(f"tau_max={diag.tau_max:.0f} gamma={diag.gamma:.6f} "
              "assumption_ok=True")
    else:
        print("assumption_ok=False")
    return EXIT_OK


def cmd_oracle_check(args) -> int:
    with _usage_errors():
        if args.seeds < 1:
            raise ValueError(f"--seeds {args.seeds} checks no instance")
        if not (math.isfinite(args.tol) and args.tol >= 0.0):
            raise ValueError(f"--tol {args.tol} is not a finite number >= 0")
        # every instance meets the oracle's size guards before any solve
        instances = [generate(GeneratorConfig(
            seed=seed, num_arms=args.n, num_states=args.states,
            num_actions=args.actions, num_constraints=args.k))
            for seed in range(args.seeds)]
        r_stars = [exact_oracle(instance) for instance in instances]
    worst = -math.inf
    for seed, (instance, r_star) in enumerate(zip(instances, r_stars)):
        r_rel = PolicyBundle.prepare(instance).solution.objective
        margin = r_star - r_rel
        worst = max(worst, margin)
        print(f"seed={seed}: R*={r_star:.8f} R_rel={r_rel:.8f} "
              f"margin={margin:+.2e}")
    if worst > args.tol:
        print(f"upper bound violated by {worst:.2e} > {args.tol:.2e}",
              file=sys.stderr)
        return EXIT_VALIDATION
    print(f"upper bound holds for all {args.seeds} instances "
          f"(worst margin {worst:+.2e})")
    return EXIT_OK


def ratio_chart_svg(rows) -> str:
    """Line chart of optimality ratio vs N (log x), one polyline per policy.
    A row whose ratio is not finite (R_rel = 0) gets no point."""
    width, height = 640, 420
    ml, mr, mt, mb = 70, 20, 20, 50
    policies = sorted({r["policy"] for r in rows})
    xs = sorted({r["N"] for r in rows})
    ys = [r["ratio"] for r in rows if math.isfinite(r["ratio"])]
    y_lo = min(ys, default=1.0) - 0.01
    y_hi = max([1.0, *ys]) + 0.01
    lx = [math.log(x) for x in xs]

    def px(n):
        if len(xs) == 1:
            return ml + (width - ml - mr) / 2
        f = (math.log(n) - lx[0]) / (lx[-1] - lx[0])
        return ml + f * (width - ml - mr)

    def py(v):
        f = (v - y_lo) / (y_hi - y_lo)
        return height - mb - f * (height - mt - mb)

    colors = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd"]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{ml}" y1="{height - mb}" x2="{width - mr}" '
        f'y2="{height - mb}" stroke="black"/>',
        f'<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{height - mb}" stroke="black"/>',
    ]
    for n in xs:
        parts.append(f'<text x="{px(n):.1f}" y="{height - mb + 18}" '
                     f'font-size="12" text-anchor="middle">{n}</text>')
    for j in range(6):
        v = y_lo + j * (y_hi - y_lo) / 5
        parts.append(f'<text x="{ml - 8}" y="{py(v) + 4:.1f}" font-size="12" '
                     f'text-anchor="end">{v:.3f}</text>')
        parts.append(f'<line x1="{ml}" y1="{py(v):.1f}" x2="{width - mr}" '
                     f'y2="{py(v):.1f}" stroke="#dddddd"/>')
    for c, policy in enumerate(policies):
        pts = sorted((r["N"], r["ratio"]) for r in rows
                     if r["policy"] == policy and math.isfinite(r["ratio"]))
        path = " ".join(f"{px(n):.1f},{py(v):.1f}" for n, v in pts)
        color = colors[c % len(colors)]
        parts.append(f'<polyline points="{path}" fill="none" '
                     f'stroke="{color}" stroke-width="2"/>')
        for n, v in pts:
            parts.append(f'<circle cx="{px(n):.1f}" cy="{py(v):.1f}" r="3" '
                         f'fill="{color}"/>')
        parts.append(f'<text x="{width - mr - 5}" y="{mt + 16 * (c + 1)}" '
                     f'font-size="13" text-anchor="end" fill="{color}">'
                     f'{policy}</text>')
    parts.append(f'<text x="{(ml + width - mr) / 2:.0f}" y="{height - 10}" '
                 'font-size="13" text-anchor="middle">N (log scale)</text>')
    parts.append('</svg>')
    return "\n".join(parts)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wcmdp",
        description="Heterogeneous weakly-coupled MDP planning and simulation")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a random instance file")
    p.add_argument("--n", type=int, required=True, help="number of arms")
    _add_generation_flags(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("solve", help="solve the LP relaxation of an instance")
    p.add_argument("--instance", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("simulate", help="simulate policies on one instance")
    p.add_argument("--instance", required=True)
    p.add_argument("--policies", default="id", help="comma-separated policies")
    _add_sim_flags(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep", help="simulate policies across system sizes")
    _add_generation_flags(p)
    p.add_argument("--n-list", required=True, help="comma-separated sizes")
    p.add_argument("--policies", default="id", help="comma-separated policies")
    _add_sim_flags(p)
    p.add_argument("--out", required=True)
    p.add_argument("--svg", default=None)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("diagnose", help="mixing and drift diagnostics")
    p.add_argument("--instance", required=True)
    p.add_argument("--strict", action="store_true")
    p.add_argument("--probe-drift", action="store_true")
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--t-cap", type=int, default=10000)
    p.add_argument("--sim-seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_diagnose)

    p = sub.add_parser("oracle-check",
                       help="exact small-instance optimum vs the LP bound")
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--states", type=int, default=3)
    p.add_argument("--actions", type=int, default=2)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--seeds", type=int, default=20)
    p.add_argument("--tol", type=float, default=1e-6)
    p.set_defaults(func=cmd_oracle_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        with _usage_errors():
            _check_outputs(args)
        return args.func(args)
    except LpSolveError as exc:
        print(f"relaxation solve failed: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
