"""Command-line front end.

``proxsplit run <config> [--out DIR] [--seed N]`` executes the CT
reconstruction experiment described by a flat ``key = value`` config file
and writes results.csv, per-run trace CSVs, and PGM reconstructions.

Config keys:

    run.solvers (dfb,pdfb,admm)  run.eps (1e-6)  run.max_outer (40000)
    run.out (.)
    scene.n, scene.n_views, scene.n_rays, scene.geometry, scene.noise_var_b,
    scene.noise_var_prior, scene.seed, scene.lambda1, scene.lambda2
    <algo>.gamma, dfb.lambda, dfb.inner_iters, pdfb.sigma, pdfb.tau,
    pdfb.inner_iters, admm.rho

The run.* keys are the CLI's own, with their defaults in parentheses.  A
scene.* key sets the ct.Scene field of its name, and an <algo>.* key the
solvers.SolverConfig field (lambda sets lam) that solvers.OPTIONS lists for
the algorithm; an unset key keeps that dataclass's default.  Any other key
(so a setting an algorithm does not read, such as admm.lambda), a value no
problem admits (a step, rho or eps that is not finite and positive,
run.max_outer or inner_iters < 1, a noise variance or lambda that is
negative or not finite), two runs that would write the same files (one
algorithm, eps equal in %g), a config file that is unreadable or not UTF-8
and an output directory that cannot be made are usage errors; a step outside
its convergence bound for the scene is a solver failure.  Exit codes: 0 ok,
1 solver failure, 2 usage error.
"""

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np

from .errors import ParameterError, ProxsplitError
from .ct import Scene, run_experiment
from .solvers import OPTIONS, SolverConfig

EXIT_OK = 0
EXIT_SOLVER = 1
EXIT_USAGE = 2


class ConfigError(ProxsplitError):
    pass


def parse_config(path):
    """Parse a flat 'key = value' file into a dict; '#' starts a comment."""
    out = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', "
                              f"got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not key or not value:
            raise ConfigError(f"{path}:{lineno}: empty key or value")
        out[key] = value
    return out


def _get(cfg, key, conv, default):
    if key not in cfg:
        return default
    try:
        return conv(cfg[key])
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {cfg[key]!r} ({exc})")


# Config keys that set Scene fields (scene.<field>) and SolverConfig fields
# (<algo>.<field> for those solvers.OPTIONS lists, with lam as lambda), each
# converted by the field's type; unset fields keep their defaults.
SCENE_KEYS = {f.name: f.type for f in dataclasses.fields(Scene)}
SOLVER_KEYS = {("lambda" if f.name == "lam" else f.name): (f.name, f.type)
               for f in dataclasses.fields(SolverConfig)
               if any(f.name in reads for reads in OPTIONS.values())}
RUN_KEYS = ("run.solvers", "run.eps", "run.max_outer", "run.out")
KNOWN_KEYS = frozenset(
    [f"scene.{k}" for k in SCENE_KEYS] + list(RUN_KEYS)
    + [f"{a}.{k}" for a, fields in OPTIONS.items()
       for k, (name, _) in SOLVER_KEYS.items() if name in fields])


def build_runspec(cfg, out_override=None, seed_override=None):
    unknown = sorted(set(cfg) - KNOWN_KEYS)
    if unknown:
        raise ConfigError(f"unknown config key(s): {', '.join(unknown)}")
    scene_args = {k: _get(cfg, f"scene.{k}", conv, None)
                  for k, conv in SCENE_KEYS.items() if f"scene.{k}" in cfg}
    if seed_override is not None:
        scene_args["seed"] = seed_override
    try:
        scene = Scene(**scene_args)
    except ParameterError as exc:
        raise ConfigError(f"bad scene: {exc}")
    solvers = [s.strip() for s in
               _get(cfg, "run.solvers", str, "dfb,pdfb,admm").split(",")]
    eps_list = _get(cfg, "run.eps",
                    lambda v: [float(e) for e in v.split(",")], [1e-6])
    max_outer = _get(cfg, "run.max_outer", int, 40_000)
    out_dir = Path(out_override if out_override is not None
                   else _get(cfg, "run.out", str, "."))

    configs = []
    for algo in solvers:
        solver_args = {name: _get(cfg, f"{algo}.{k}", conv, None)
                       for k, (name, conv) in SOLVER_KEYS.items()
                       if f"{algo}.{k}" in cfg}
        for eps in eps_list:
            try:
                configs.append(SolverConfig(algo, max_outer=max_outer,
                                            eps=eps, **solver_args))
            except ParameterError as exc:
                raise ConfigError(f"bad {algo} settings: {exc}")
    tags = [_tag(c.algorithm, c.eps) for c in configs]
    shared = sorted({t for t in tags if tags.count(t) > 1})
    if shared:
        raise ConfigError(f"runs share output file tag(s) {shared}")
    return scene, configs, out_dir


def _tag(algorithm, eps):
    return f"{algorithm}_eps{eps:g}"


def write_pgm(path, image_vec, n):
    """8-bit binary PGM, min-max normalized; bounds go to a sidecar file."""
    img = np.asarray(image_vec, dtype=float).reshape((n, n), order="F")
    lo, hi = float(img.min()), float(img.max())
    scale = 255.0 / (hi - lo) if hi > lo else 0.0
    data = np.round((img - lo) * scale).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{n} {n}\n255\n".encode())
        fh.write(data.tobytes())
    Path(str(path) + ".txt").write_text(
        f"min = {lo!r}\nmax = {hi!r}\n")


def run(config_path, out_override=None, seed_override=None):
    cfg = parse_config(config_path)
    scene, configs, out_dir = build_runspec(cfg, out_override, seed_override)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot use output directory {out_dir}: {exc}")
    rows = run_experiment(scene, configs)

    results_lines = ["algorithm,eps,snr_db,nmsd,iterations,"
                     "final_objective,terminated_by"]
    failures = []
    for row in rows:
        if "error" in row:
            failures.append(f"{row['algorithm']} (eps={row['eps']}): "
                            f"{row['error']}")
            continue
        results_lines.append(",".join([
            row["algorithm"], str(row["eps"]), str(row["snr_db"]),
            str(row["nmsd"]), str(row["iterations"]),
            str(row["final_objective"]), row["terminated_by"]]))
        tag = _tag(row["algorithm"], row["eps"])
        report = row["report"]
        trace_lines = ["iteration,objective,snr_db,residual"]
        for i, res in enumerate(report.residual_trace, start=1):
            trace_lines.append(",".join([
                str(i), str(report.objective_trace[i]),
                str(report.metric_trace[i]), str(res)]))
        (out_dir / f"trace_{tag}.csv").write_text(
            "\n".join(trace_lines) + "\n")
        write_pgm(out_dir / f"recon_{tag}.pgm", report.x_final, scene.n)
    (out_dir / "results.csv").write_text("\n".join(results_lines) + "\n")

    if failures:
        print("solver failures:", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return EXIT_SOLVER
    return EXIT_OK


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="proxsplit",
        description="Proximal-splitting CT reconstruction experiments")
    sub = parser.add_subparsers(dest="command")
    p_run = sub.add_parser("run", help="run the experiment in a config file")
    p_run.add_argument("config")
    p_run.add_argument("--out", default=None, help="output directory")
    p_run.add_argument("--seed", type=int, default=None,
                       help="override scene.seed")

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    if args.command == "run":
        try:
            return run(args.config, args.out, args.seed)
        except ConfigError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE
    parser.print_usage(sys.stderr)
    return EXIT_USAGE
