"""Command line front end.

Subcommands mirror the package operations: ``kalman-check``,
``dissipation-check``, ``synthesize``, ``observability-sweep``,
``lr-run`` and ``cost-sweep``.  All artifacts are UTF-8 CSV or JSON
written under the output directory, with a schema version comment as
the first CSV line so files stay diffable across versions.

Exit codes: 0 success, 1 configuration or validation problem,
2 controllability failure (the Kalman certificate rejects the system),
3 numerical failure (solve, adaptation or step control, or
a cost sweep in which fewer than 2 horizons succeed),
64 command line usage error.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from .config import ExperimentConfig, load_config
from .dynamics import ModeState, dissipation_check, full_state, project_low, single_mode_state
from .errors import (AdaptationError, ControllabilityError, NullCtrlError,
                     ObservabilityError, PropagationStepError, ValidationError)
from .hum import assemble_gramian, simulate_forward, synthesize_control
from .kalman import _ranks, kalman_certificate
from .lebeau_robbiano import cost_sweep, run_lr

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_UNCONTROLLABLE = 2
EXIT_NUMERICAL = 3
EXIT_USAGE = 64

_SCHEMA_PREFIX = "# nullctrl-csv v1"


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors exit with a dedicated code,
    keeping 2 reserved for controllability failures."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def _write_csv(path: Path, schema: str, header: list[str], rows) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"{_SCHEMA_PREFIX} {schema}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(x) for x in row])


def _finite_or_none(value: float) -> float | None:
    """JSON has no NaN or infinity: undefined numbers are written as null."""
    return float(value) if np.isfinite(value) else None


def _write_json(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _outdir(cfg: ExperimentConfig, args) -> Path:
    return Path(args.out if args.out is not None else cfg.output_dir)


def _default(args, cfg: ExperimentConfig, key: str, fallback=None):
    val = getattr(args, key.replace("-", "_"), None)
    if val is not None:
        return val
    if key in cfg.experiment:
        return cfg.experiment[key]
    return fallback


def _control_rows(controls) -> list:
    rows = []
    for ctl in controls:
        for t_i, t in enumerate(ctl.nodes):
            for j in range(ctl.coefficients.shape[1]):
                for k_i, k in enumerate(ctl.mode_indices):
                    rows.append((t, j, int(k), ctl.coefficients[t_i, j, k_i]))
    return rows


def _read_y0_csv(path: str, cfg: ExperimentConfig) -> ModeState:
    coef = np.zeros((cfg.model.num_modes, cfg.system.n))
    with open(path, encoding="utf-8") as fh:
        first = fh.readline()
        if not first.startswith("#"):
            fh.seek(0)
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header[:3]] != ["mode", "equation", "value"]:
            raise ValidationError(
                f"{path}: expected CSV header 'mode,equation,value'"
            )
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                k, i, v = int(row[0]), int(row[1]), float(row[2])
            except (ValueError, IndexError) as exc:
                raise ValidationError(f"{path}:{line_no}: bad row {row!r}") from exc
            if not (0 <= k < cfg.model.num_modes and 0 <= i < cfg.system.n):
                raise ValidationError(
                    f"{path}:{line_no}: mode {k} / equation {i} out of range"
                )
            coef[k, i] = v
    return full_state(cfg.model, coef)


def _y0(cfg: ExperimentConfig, args) -> ModeState:
    """The ``--y0`` CSV if given, else phi_1 in equation 1."""
    if getattr(args, "y0", None):
        return _read_y0_csv(args.y0, cfg)
    e1 = np.zeros(cfg.system.n)
    e1[0] = 1.0
    return single_mode_state(cfg.model, 0, e1)


def _cmd_kalman_check(cfg: ExperimentConfig, args) -> int:
    verdict = kalman_certificate(cfg.system, cfg.model)
    if verdict.controllable:
        print("verdict: Controllable")
        print(f"bad_gammas: {list(verdict.bad_gammas)}")
        print(f"checked_tolerance: {verdict.checked_tolerance}")
    else:
        print("verdict: Fails")
        print(f"p0: {verdict.p0}")
        print(f"gamma_p0: {_fmt(verdict.gamma_p0)}")
        print(f"z0: {[float(z) for z in verdict.z0]}")
        if verdict.degenerate:
            print("degenerate: rank drops at every gamma")
    if args.emit_bad_set:
        rows = zip(verdict.bad_gammas, _ranks(cfg.system, verdict.bad_gammas))
        _write_csv(Path(args.emit_bad_set), "kalman-bad-set",
                   ["gamma", "rank"], rows)
    return EXIT_OK


def _cmd_dissipation_check(cfg: ExperimentConfig, args) -> int:
    gamma = _default(args, cfg, "gamma")
    if gamma is None:
        raise ValidationError("--gamma is required (or set experiment.gamma)")
    trials = int(_default(args, cfg, "trials", 100))
    times = np.linspace(0.05, 1.0, 20)
    rows = []
    worst = 0.0
    for t in times:
        rep = dissipation_check(cfg.system, cfg.model, float(gamma), float(t),
                                trials=trials, seed=cfg.seed)
        rows.append((rep.t, rep.max_ratio, rep.bound))
        worst = max(worst, rep.max_ratio / rep.bound)
        if not rep.satisfied:
            print(f"dissipation bound violated at t={t}: "
                  f"ratio {rep.max_ratio!r} > bound {rep.bound!r}", file=sys.stderr)
            return EXIT_NUMERICAL
    out = _outdir(cfg, args) / "dissipation.csv"
    _write_csv(out, "dissipation", ["t", "max_ratio", "bound"], rows)
    print(f"dissipation check passed: {trials} trials at gamma={_fmt(gamma)}, "
          f"worst ratio/bound = {worst!r}")
    print(f"wrote {out}")
    return EXIT_OK


def _cmd_synthesize(cfg: ExperimentConfig, args) -> int:
    gamma = _default(args, cfg, "gamma")
    tau = _default(args, cfg, "tau")
    if gamma is None or tau is None:
        raise ValidationError(
            "--gamma and --tau are required (or set experiment.gamma/tau)")
    gamma, tau = float(gamma), float(tau)
    quad_nodes = int(_default(args, cfg, "quad_nodes", 32))
    y0 = _y0(cfg, args)
    y0_low = project_low(y0, gamma)
    dropped = y0.num_modes - y0_low.num_modes
    if dropped:
        print(f"note: dropped {dropped} modes above gamma={_fmt(gamma)} from y0",
              file=sys.stderr)

    gramian = assemble_gramian(cfg.system, cfg.model, list(cfg.masks), gamma,
                               tau, quad_nodes)
    control = synthesize_control(cfg.system, cfg.model, list(cfg.masks),
                                 y0_low, gamma, tau, gramian=gramian)
    states = simulate_forward(cfg.system, cfg.model, list(cfg.masks), y0_low,
                              control, gamma)
    terminal = states[-1].norm()
    y0_norm = y0_low.norm()

    outdir = _outdir(cfg, args)
    _write_csv(outdir / "control.csv", "control",
               ["t", "channel", "mode", "beta"], _control_rows([control]))
    _write_json(outdir / "summary.json", {
        "gamma": gamma,
        "tau": tau,
        "norm": control.norm,
        "min_eigenvalue": gramian.min_eigenvalue,
        "quad_nodes_final": len(gramian.nodes),
        "terminal_residual": terminal,
        "terminal_residual_rel": terminal / y0_norm if y0_norm > 0 else 0.0,
    })
    print(f"control norm: {control.norm!r}")
    print(f"gramian min eigenvalue: {gramian.min_eigenvalue!r}")
    print(f"terminal residual: {terminal!r}")
    print(f"wrote {outdir / 'control.csv'} and {outdir / 'summary.json'}")
    return EXIT_OK


def _cmd_observability_sweep(cfg: ExperimentConfig, args) -> int:
    gammas = args.gammas or cfg.experiment.get("gammas")
    if gammas is None:
        raise ValidationError("--gammas is required (or set experiment.gammas)")
    if isinstance(gammas, str):
        gammas = [float(g) for g in gammas.split(",") if g.strip()]
    gammas = [float(g) for g in gammas]
    tau = float(_default(args, cfg, "tau", 0.5))
    quad_nodes = int(_default(args, cfg, "quad_nodes", 32))
    rows = []
    for g in gammas:
        lam = assemble_gramian(cfg.system, cfg.model, list(cfg.masks), g, tau,
                               quad_nodes).min_eigenvalue
        log_inv = float(np.log(1.0 / lam)) if lam > 0 else float("inf")
        rows.append((g, lam, log_inv, float(np.sqrt(g))))
    out = _outdir(cfg, args) / "observability.csv"
    _write_csv(out, "observability-sweep",
               ["gamma", "min_eigenvalue", "log_inv", "sqrt_gamma"], rows)
    print(f"wrote {out}")
    return EXIT_OK


def _cmd_lr_run(cfg: ExperimentConfig, args) -> int:
    T = float(_default(args, cfg, "T", 1.0))
    M = float(_default(args, cfg, "M", 4.0))
    adapt = _default(args, cfg, "adapt", True)
    gamma_sim = _default(args, cfg, "gamma_sim")
    gamma_sim = float(gamma_sim) if gamma_sim is not None else None
    quad_nodes = int(_default(args, cfg, "quad_nodes", 32))
    y0 = _y0(cfg, args)

    result = run_lr(cfg.system, cfg.model, list(cfg.masks), y0, T, M,
                    adapt=adapt, gamma_sim=gamma_sim, quad_nodes=quad_nodes)

    outdir = _outdir(cfg, args)
    _write_csv(outdir / "control.csv", "control",
               ["t", "channel", "mode", "beta"], _control_rows(result.controls))
    _write_csv(outdir / "windows.csv", "lr-window-log",
               ["k", "phase", "a_k", "T_k", "mu_k", "residual", "window_cost"],
               [(r.index, r.phase, r.start, r.length, r.cutoff, r.norm_end,
                 r.cost) for r in result.records])
    _write_json(outdir / "summary.json", {
        "T": T,
        "M_used": result.M_used,
        "doublings": result.doublings,
        "total_cost": result.total_cost,
        "terminal_norm": result.terminal_norm,
        "terminal_rel": result.terminal_rel,
    })
    print(f"total cost: {result.total_cost!r}")
    print(f"terminal relative norm: {result.terminal_rel!r}")
    print(f"M used: {_fmt(result.M_used)} after {result.doublings} doublings")
    print(f"wrote {outdir / 'control.csv'}, {outdir / 'windows.csv'}, "
          f"{outdir / 'summary.json'}")
    return EXIT_OK


def _cmd_cost_sweep(cfg: ExperimentConfig, args) -> int:
    t_list = args.T_list or cfg.experiment.get("T_list")
    if t_list is None:
        t_list = [1.0, 0.5, 0.25, 0.125]
    if isinstance(t_list, str):
        t_list = [float(t) for t in t_list.split(",") if t.strip()]
    M = float(_default(args, cfg, "M", 4.0))
    adapt = _default(args, cfg, "adapt", True)
    quad_nodes = int(_default(args, cfg, "quad_nodes", 32))
    y0 = _y0(cfg, args)

    sweep = cost_sweep(cfg.system, cfg.model, list(cfg.masks), y0, t_list, M,
                       adapt=adapt, quad_nodes=quad_nodes)

    outdir = _outdir(cfg, args)
    _write_csv(outdir / "costsweep.csv", "cost-sweep",
               ["T", "ok", "cost", "terminal_rel", "M_used", "message"],
               [(r.T, int(r.ok), r.cost, r.terminal_rel, r.M_used, r.message)
                for r in sweep.rows])
    n_ok = sum(1 for r in sweep.rows if r.ok)
    _write_json(outdir / "fit.json", {
        "alpha": _finite_or_none(sweep.alpha),
        "beta": _finite_or_none(sweep.beta),
        "r_squared": _finite_or_none(sweep.r_squared),
        "n_ok": n_ok,
    })
    if n_ok < 2:
        print(f"numerical failure: only {n_ok} of {len(sweep.rows)} horizons "
              f"succeeded, the cost law needs 2; wrote "
              f"{outdir / 'costsweep.csv'} and {outdir / 'fit.json'}",
              file=sys.stderr)
        return EXIT_NUMERICAL
    print(f"fit: log(cost) = {sweep.alpha!r} + {sweep.beta!r} / T, "
          f"R^2 = {sweep.r_squared!r}")
    print(f"wrote {outdir / 'costsweep.csv'} and {outdir / 'fit.json'}")
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="nullctrl",
                     description="Kalman certificates and dyadic null-control "
                                 "synthesis for coupled parabolic systems")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="JSON configuration file")
        p.add_argument("--out", default=None, help="output directory "
                       "(default: config output_dir)")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")

    p = sub.add_parser("kalman-check", help="run the rank certificate")
    common(p)
    p.add_argument("--emit-bad-set", default=None, metavar="CSV",
                   help="write confirmed bad roots with their ranks")
    p.set_defaults(func=_cmd_kalman_check)

    p = sub.add_parser("dissipation-check",
                       help="randomized high-frequency decay check")
    common(p)
    p.add_argument("--gamma", type=float, default=None)
    p.add_argument("--trials", type=int, default=None)
    p.set_defaults(func=_cmd_dissipation_check)

    p = sub.add_parser("synthesize", help="one-shot low-frequency null control")
    common(p)
    p.add_argument("--gamma", type=float, default=None)
    p.add_argument("--tau", type=float, default=None)
    p.add_argument("--y0", default=None, metavar="CSV",
                   help="initial datum (header: mode,equation,value); "
                        "default is phi_1 in equation 1")
    p.add_argument("--quad-nodes", type=int, default=None)
    p.set_defaults(func=_cmd_synthesize)

    p = sub.add_parser("observability-sweep",
                       help="Gramian minimum eigenvalue vs cutoff")
    common(p)
    p.add_argument("--gammas", default=None, help="comma-separated cutoffs")
    p.add_argument("--tau", type=float, default=None)
    p.add_argument("--quad-nodes", type=int, default=None)
    p.set_defaults(func=_cmd_observability_sweep)

    p = sub.add_parser("lr-run", help="dyadic active/passive controller")
    common(p)
    p.add_argument("--T", type=float, default=None)
    p.add_argument("--M", type=float, default=None)
    adapt = p.add_mutually_exclusive_group()
    adapt.add_argument("--adapt", dest="adapt", action="store_true", default=None)
    adapt.add_argument("--no-adapt", dest="adapt", action="store_false")
    p.add_argument("--gamma-sim", type=float, default=None)
    p.add_argument("--quad-nodes", type=int, default=None)
    p.add_argument("--y0", default=None, metavar="CSV")
    p.set_defaults(func=_cmd_lr_run)

    p = sub.add_parser("cost-sweep", help="cost law over several horizons")
    common(p)
    p.add_argument("--T-list", default=None, help="comma-separated horizons")
    p.add_argument("--M", type=float, default=None)
    adapt = p.add_mutually_exclusive_group()
    adapt.add_argument("--adapt", dest="adapt", action="store_true", default=None)
    adapt.add_argument("--no-adapt", dest="adapt", action="store_false")
    p.add_argument("--quad-nodes", type=int, default=None)
    p.set_defaults(func=_cmd_cost_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            if args.seed < 0:
                raise ValidationError("--seed must be nonnegative")
            cfg = ExperimentConfig(system=cfg.system, model=cfg.model,
                                   masks=cfg.masks, experiment=cfg.experiment,
                                   seed=args.seed, output_dir=cfg.output_dir)
        return args.func(cfg, args)
    except ControllabilityError as exc:
        print(f"controllability failure: {exc}", file=sys.stderr)
        return EXIT_UNCONTROLLABLE
    except (ObservabilityError, PropagationStepError, AdaptationError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (NullCtrlError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
