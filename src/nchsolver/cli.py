"""Command-line entry points.

    nch run <config>     -- execute a configured simulation
    nch check <config>   -- report the admissibility of the configuration
    nch verify           -- run the built-in oracle suite
    nch init-config      -- print a configuration template to stdout

Exit codes are part of the stable interface: 0 success (run finished or
check admissible), 1 check inadmissible / verify failures, 2 configuration
error, 3 solver error.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from . import config as config_mod
from . import verify as verify_mod
from .driver import run as run_driver
from .errors import ConfigError, SolverError
from .fieldio import write_checkpoint, write_diagnostics, write_field
from .spectral import make_cache
from .steppers import TWO_STEP_SCHEMES, bootstrap_config, check_solvability

EXIT_OK = 0
EXIT_INADMISSIBLE = 1
EXIT_CONFIG = 2
EXIT_SOLVER = 3


def _build(args):
    values = config_mod.load_config(args.config)
    values = config_mod.apply_overrides(values, output_dir=args.output_dir,
                                        seed=args.seed, max_steps=args.max_steps)
    geometry = config_mod.build_geometry(values)
    kernel = config_mod.build_kernel(values, geometry)
    cache = make_cache(geometry)
    scheme_cfg = config_mod.build_scheme_config(values)
    return values, geometry, kernel, cache, scheme_cfg


def cmd_run(args) -> int:
    values, geometry, kernel, cache, scheme_cfg = _build(args)
    out_dir = Path(values["output.dir"])
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as err:  # an existing file, or a path under one
        raise ConfigError(f"output.dir {str(out_dir)!r} is not a usable directory: {err}") from err
    options = config_mod.build_run_options(values, out_dir)
    u0 = config_mod.build_initial_field(values, geometry)

    started = time.perf_counter()
    result = run_driver(u0, scheme_cfg, kernel, cache, options)
    elapsed = time.perf_counter() - started

    write_diagnostics(out_dir / "diagnostics.csv", result.records)
    write_field(out_dir / "u_final.nchf", result.final_state.u, result.final_state.time)
    write_checkpoint(out_dir / "checkpoint.nchk", result.final_state)
    (out_dir / "config.resolved").write_text(config_mod.emit_config(values))

    summary = "\n".join([
        f"termination: {result.termination}",
        f"steps: {result.final_state.step_index}",
        f"final_energy: {float(result.records[-1].energy)!r}",
        f"equilibrium_residual: {float(result.equilibrium_residual)!r}",
        f"wall_time_s: {elapsed:.3f}",
    ]) + ("\ndetail: " + result.error_detail if result.error_detail else "") + "\n"
    (out_dir / "summary.txt").write_text(summary)
    print(summary, end="")

    if result.termination == "error":
        return EXIT_SOLVER
    return EXIT_OK


def cmd_check(args) -> int:
    values, geometry, kernel, cache, scheme_cfg = _build(args)
    report = check_solvability(scheme_cfg, kernel, cache)
    print(f"scheme: {report.scheme}")
    print(f"tau: {report.tau!r}")
    print(f"gamma0: {report.gamma0!r}")
    print(f"conv_one: {report.conv_one!r}")
    print(f"beta: {report.beta!r}")
    print(f"S: {report.stabilization!r}")
    print(f"per_mode_min: {report.per_mode_min!r}")
    print(f"margin: {report.margin!r}")
    if report.note:
        print(f"note: {report.note}")
    admissible = report.admissible
    if scheme_cfg.scheme in TWO_STEP_SCHEMES:  # a run's first step takes the bootstrap scheme
        boot = check_solvability(bootstrap_config(scheme_cfg), kernel, cache)
        print(f"bootstrap: {boot.scheme} {'admissible' if boot.admissible else 'inadmissible'}, "
              f"margin {boot.margin!r}")
        admissible = admissible and boot.admissible
    print(f"verdict: {'admissible' if admissible else 'inadmissible'}")
    return EXIT_OK if admissible else EXIT_INADMISSIBLE


def cmd_verify(_args) -> int:
    results = verify_mod.run_all_checks()
    print(verify_mod.render_table(results))
    return EXIT_OK if all(r.passed for r in results) else EXIT_INADMISSIBLE


def cmd_init_config(_args) -> int:
    sys.stdout.write(config_mod.template_config())
    return EXIT_OK


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nch",
        description="Energy-stable schemes for the 2D periodic nonlocal Cahn-Hilliard equation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--output-dir", default=None, help="override output.dir")
    common.add_argument("--seed", type=int, default=None, help="override run.seed")
    common.add_argument("--max-steps", type=int, default=None, help="override run.max_steps")

    p_run = sub.add_parser("run", parents=[common], help="execute a configured simulation")
    p_run.add_argument("config")
    p_run.set_defaults(handler=cmd_run)

    p_check = sub.add_parser("check", parents=[common], help="report scheme admissibility")
    p_check.add_argument("config")
    p_check.set_defaults(handler=cmd_check)

    p_verify = sub.add_parser("verify", help="run the built-in oracle suite")
    p_verify.set_defaults(handler=cmd_verify)

    p_init = sub.add_parser("init-config", help="print a configuration template")
    p_init.set_defaults(handler=cmd_init_config)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except SolverError as err:
        print(f"solver error: {err}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
