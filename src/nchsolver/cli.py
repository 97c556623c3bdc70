"""Command-line entry points.

    nch run <config>     -- execute a configured simulation
    nch check <config>   -- report the admissibility of the configuration
    nch verify           -- run the built-in oracle suite
    nch init-config      -- print a template configuration in canonical form

``check`` and ``run`` build a run's objects through the one function
``_build``, so ``check`` exits 2 on every configuration that ``run``
rejects with exit 2 before its first step, one too large to allocate
included, with two exceptions: an unusable
``output.dir`` (``check`` creates nothing), and gamma0 <= 0, which the
report covers and calls inadmissible (exit 1).  ``check`` also evaluates
the step-0 diagnostics row as ``run`` records it (``driver._start``) and
calls a configuration inadmissible whose row is not finite, on which
``run`` would end at step 0 with exit 3.  Before its verdict ``check``
prints ``growing_modes``, the count of nonzero half-spectrum modes m with
F''(mean u0) + G_m < 0: above 0, small perturbations of the uniform state
grow and the run phase-separates.

Only ``verify`` imports the oracle suite (``verify``, ``oracles``) and the
scipy modules it alone uses (``fft``, ``integrate``, ``optimize``,
``spatial``), so ``run`` and ``check`` load numpy and the package alone
(and ``scipy.sparse`` at a run's first Newton-Krylov step, see
``solvers``).

Exit codes are part of the stable interface: 0 success (run finished or
check admissible), 1 check inadmissible / verify failures, 2 configuration
error (an ``output.dir`` that ``run`` cannot write to included), 3 solver
error (including a run whose diagnostics are not finite).
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

from . import config as config_mod
from .driver import _non_finite, _start
from .driver import run as run_driver
from .errors import ConfigError, SolverError
from .energetics import potential_d2
from .fieldio import write_checkpoint, write_diagnostics, write_field
from .grid import mean
from .spectral import make_cache
from .steppers import _SCHEMES, check_solvability

EXIT_OK = 0
EXIT_INADMISSIBLE = 1
EXIT_CONFIG = 2
EXIT_SOLVER = 3


def _build(args):
    """The one path from a configuration file to a run's objects, for ``check`` and ``run`` alike.

    Loads the file, applies the command-line overrides and builds every part
    a run needs, so ``check`` meets each configuration error that ``run``
    meets before its first step; see the module docstring for the two
    exceptions.  Arrays that cannot be allocated are a ``ConfigError``
    naming the key that sized them: every array is N x N or smaller, except
    a Gaussian kernel's N x (2 images + 1) distances to its images.
    """
    values = config_mod.load_config(args.config)
    values = config_mod.apply_overrides(values, output_dir=args.output_dir,
                                        seed=args.seed, max_steps=args.max_steps)
    try:
        geometry = config_mod.build_geometry(values)
        kernel = config_mod.build_kernel(values, geometry)
        cache = make_cache(geometry)
        scheme_cfg = config_mod.build_scheme_config(values)
        options = config_mod.build_run_options(values, Path(values["output.dir"]))
        u0 = config_mod.build_initial_field(values, geometry)
    except MemoryError as err:
        images = values["model.kernel.images"] if values["model.kernel.type"] == "gaussian" else 0
        key = "model.kernel.images" if 2 * images + 1 > values["grid.N"] else "grid.N"
        raise ConfigError(f"key {key!r}: the run's arrays cannot be allocated ({err})") from err
    return values, kernel, cache, scheme_cfg, options, u0


def cmd_run(args) -> int:
    values, kernel, cache, scheme_cfg, options, u0 = _build(args)
    out_dir = Path(values["output.dir"])
    # A directory that cannot be made (an existing file, or a path under
    # one) or a file in it that cannot be written (a snapshot inside the
    # run included) is the configuration's output.dir at fault.
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
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
    except OSError as err:
        raise ConfigError(f"output.dir {str(out_dir)!r} is not a usable directory: {err}") from err
    print(summary, end="")

    if result.termination == "error":
        return EXIT_SOLVER
    return EXIT_OK


def _growing_modes(model, u0) -> int:
    """Nonzero half-spectrum modes m with F''(mean u0) + G_m < 0: those that grow from the mean."""
    with np.errstate(over="ignore"):  # F'' of a mean beyond 1e154 is inf: no mode grows
        curvature = potential_d2(model.potential, mean(u0))
    return int(np.count_nonzero(model.gap.reshape(-1)[1:] < -curvature))


def cmd_check(args) -> int:
    _, kernel, cache, scheme_cfg, _, u0 = _build(args)
    model = scheme_cfg.model(kernel, cache)  # as driver.run builds it
    _, row = _start(u0, scheme_cfg, model)  # the step-0 row a run records first
    report = check_solvability(scheme_cfg, model)
    print(f"scheme: {scheme_cfg.scheme}")
    print(f"tau: {scheme_cfg.tau!r}")
    print(f"gamma0: {model.gamma0!r}")
    print(f"conv_one: {kernel.conv_one!r}")
    if (beta := model.potential.curvature_bound) is not None:
        print(f"beta: {beta!r}")
    print(f"S: {scheme_cfg.stabilization!r}")
    print(f"per_mode_min: {report.per_mode_min!r}")
    print(f"margin: {report.margin!r}")
    if report.note:
        print(f"note: {report.note}")
    admissible = report.admissible
    if _SCHEMES[scheme_cfg.scheme].two_step:  # a run's first step takes the bootstrap scheme
        boot_cfg = _SCHEMES[scheme_cfg.scheme].bootstrap(scheme_cfg, model)
        boot = check_solvability(boot_cfg, model)
        print(f"bootstrap: {boot_cfg.scheme} {'admissible' if boot.admissible else 'inadmissible'}, "
              f"margin {boot.margin!r}")
        admissible = admissible and boot.admissible
    print(f"growing_modes: {_growing_modes(model, u0)}")
    if row_detail := _non_finite(row):  # a run would end at step 0
        print(f"note: {row_detail}")
        admissible = False
    print(f"verdict: {'admissible' if admissible else 'inadmissible'}")
    return EXIT_OK if admissible else EXIT_INADMISSIBLE


def cmd_verify(_args) -> int:
    from . import verify as verify_mod  # the oracle suite and the scipy modules only it uses
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
