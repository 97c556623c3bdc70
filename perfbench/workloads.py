"""The benchmark problem, its three workloads, and the output checks.

Every workload solves the same problem: a periodized Gaussian kernel with
cJ = 130, xi = 10 and 3 images, eps = 1, L = 1, tau = 1e-4, and a random
initial field of mean 0 and amplitude 0.05 drawn from the benchmark seed.
The linear schemes use the truncated potential with K = 2 and ssi1 uses
S = beta / 2 = 5.5.  Solver settings are the library defaults and the
stability policy is ``enforce``.

A workload writes its inputs once (``prepare``), builds the solver objects
from them (``setup``, the timed set-up), and then runs in cycles.
One cycle is a fixed list of runs on the same inputs, so every cycle does
the same work and yields the same diagnostics rows.
"""

from __future__ import annotations

import contextlib
import io
import math
import re
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from nchsolver import cli, config, driver, fieldio, grid, kernels, spectral, steppers

CJ, XI, IMAGES = 130.0, 10.0, 3
EPSILON, LENGTH, TAU = 1.0, 1.0, 1e-4
DELTA, CUTOFF = 0.05, 2.0
STABILIZATION = 0.5 * (3.0 * CUTOFF**2 - 1.0)

# Rounding bounds of the output checks, in units of the float64 epsilon:
# mass is a mean over the grid, the functionals are sums over it.
MASS_TOL = 64 * np.finfo(np.float64).eps
ENERGY_RTOL = 64 * np.finfo(np.float64).eps

# Column of the diagnostics row holding each scheme's dissipated functional:
# E (the energy column, E_K under the truncated potential of ssi1) or the
# modified energy of the two-step schemes.
DISSIPATED = {"backward_euler": "energy", "convex_splitting": "energy", "ssi1": "energy",
              "bdf2": "modified_energy", "two_li": "modified_energy"}
COLUMNS = fieldio.DIAGNOSTICS_HEADER.split(",")


@dataclass
class Outcome:
    """One run of one scheme within a cycle."""

    scheme: str
    wall_s: float
    steps: int
    termination: str
    detail: str
    rows: list[str] = field(repr=False)
    violations: list[str]

    @property
    def failed(self) -> bool:
        return self.termination == "error" or bool(self.violations)

    @property
    def steps_attempted(self) -> int:
        return self.steps + (self.termination == "error")


def check_rows(scheme: str, rows: list[str], termination: str, expected: str) -> list[str]:
    """Mass drift, dissipation of the scheme's functional, and termination."""
    problems = []
    if termination not in (expected, "error"):
        problems.append(f"termination {termination!r}, expected {expected!r}")
    if not rows:
        return problems + ["no diagnostics rows"]
    table = [dict(zip(COLUMNS, row.split(","))) for row in rows]
    mass0 = float(table[0]["mass"])
    drift = max(abs(float(r["mass"]) - mass0) for r in table)
    if drift > MASS_TOL * max(1.0, abs(mass0)):
        problems.append(f"mass drift {drift:.3e} from step 0")
    column = DISSIPATED[scheme]
    series = [(int(r["step"]), float(r[column])) for r in table if r[column]]
    for (_, before), (step, after) in zip(series, series[1:]):
        if after > before + ENERGY_RTOL * max(1.0, abs(before)):
            problems.append(f"{column} rose by {after - before:.3e} at step {step}")
            break
    return problems


def raised(scheme: str, wall: float, err: Exception) -> Outcome:
    message = f"raised {type(err).__name__}: {err}"
    return Outcome(scheme, wall, 0, "exception", message, [], [message])


def residual_floor(detail: str) -> float | None:
    """Residual at which a failed Newton solve stopped, read from its message."""
    match = re.search(r"residual ([0-9.]+e[-+][0-9]+)", detail)
    return float(match.group(1)) if match else None


def scheme_config(scheme: str) -> steppers.SchemeConfig:
    return steppers.SchemeConfig(scheme, TAU, EPSILON,
                                 stabilization=STABILIZATION if scheme == "ssi1" else 0.0,
                                 cutoff=CUTOFF)


class DriverWorkload:
    """Fixed-budget ``driver.run`` of each scheme in turn, recording every step.

    ``step_schemes`` are the schemes whose step time the workload reports;
    the rest still run and count in the completed-run share.
    """

    expected = "max_steps"

    def __init__(self, name, n, schemes, step_schemes, max_steps):
        self.name, self.n, self.schemes = name, n, schemes
        self.step_schemes, self.max_steps = step_schemes, max_steps

    def prepare(self, seed: int, workdir: Path):
        return seed

    def setup(self, seed: int):
        geometry = grid.GridGeometry(self.n, LENGTH)
        kernel = kernels.sample_kernel(kernels.KernelSpec.gaussian(CJ, XI, IMAGES), geometry)
        cache = spectral.make_cache(geometry)
        u0 = driver.random_initial_field(geometry, 0.0, DELTA, seed)
        configs = {s: scheme_config(s) for s in self.schemes}
        return kernel, cache, u0, configs

    def cycle(self, case) -> list[Outcome]:
        kernel, cache, u0, configs = case
        options = driver.RunOptions(max_steps=self.max_steps, record_every=1)
        outcomes = []
        for scheme in self.schemes:
            started = time.perf_counter()
            try:
                result = driver.run(u0, configs[scheme], kernel, cache, options)
            except Exception as err:  # a run that escapes the driver is a failed run
                outcomes.append(raised(scheme, time.perf_counter() - started, err))
                continue
            wall = time.perf_counter() - started
            rows = [fieldio.format_record(r) for r in result.records]
            outcomes.append(Outcome(scheme, wall, result.final_state.step_index,
                                    result.termination, result.error_detail, rows,
                                    check_rows(scheme, rows, result.termination, self.expected)))
        return outcomes


CLI_CONFIG = """\
grid.N = {n}
grid.L = {length!r}
model.epsilon = {epsilon!r}
model.kernel.type = gaussian
model.kernel.cJ = {cj!r}
model.kernel.xi = {xi!r}
model.kernel.images = {images}
model.potential.type = truncated
model.potential.K = {cutoff!r}
scheme.name = two_li
scheme.tau = {tau!r}
run.max_steps = {max_steps}
run.record_every = 10
run.snapshot_every = 20
run.seed = {seed}
run.init.mean = 0.0
run.init.delta = {delta!r}
output.dir = {out}
"""


class CliWorkload:
    """In-process ``nch run`` on a generated config, until equilibrium."""

    expected = "equilibrium"
    schemes = step_schemes = ("two_li",)

    def __init__(self, name, n, max_steps):
        self.name, self.n, self.max_steps = name, n, max_steps

    def prepare(self, seed: int, workdir: Path) -> Path:
        path = workdir / "run.cfg"
        path.write_text(CLI_CONFIG.format(
            n=self.n, length=LENGTH, epsilon=EPSILON, cj=CJ, xi=XI, images=IMAGES,
            cutoff=CUTOFF, tau=TAU, max_steps=self.max_steps, seed=seed, delta=DELTA,
            out=workdir / "out"))
        return path

    def setup(self, path: Path):
        values = config.load_config(path)
        geometry = config.build_geometry(values)
        config.build_kernel(values, geometry)
        spectral.make_cache(geometry)
        config.build_scheme_config(values)
        config.build_run_options(values, Path(values["output.dir"]))
        config.build_initial_field(values, geometry)
        return path, Path(values["output.dir"])

    def cycle(self, case) -> list[Outcome]:
        path, out = case
        shutil.rmtree(out, ignore_errors=True)
        captured = io.StringIO()
        started = time.perf_counter()
        try:
            with contextlib.redirect_stdout(captured):
                code = cli.main(["run", str(path)])
        except Exception as err:  # a traceback instead of an exit code is a failed run
            return [raised("two_li", time.perf_counter() - started, err)]
        wall = time.perf_counter() - started
        summary = dict(line.split(": ", 1) for line in captured.getvalue().splitlines()
                       if ": " in line)
        csv = out / "diagnostics.csv"
        rows = csv.read_text().splitlines()[1:] if csv.exists() else []
        termination = summary.get("termination", "missing")
        violations = check_rows("two_li", rows, termination, self.expected)
        if code != 0:
            violations.append(f"exit code {code}, expected 0")
        return [Outcome("two_li", wall, int(summary.get("steps", 0)), termination,
                        summary.get("detail", ""), rows, violations)]


WORKLOADS = {w.name: w for w in (
    DriverWorkload("implicit_n256", 256, ("backward_euler", "convex_splitting", "bdf2"),
                   ("backward_euler", "bdf2"), max_steps=4),
    DriverWorkload("linear_n512", 512, ("ssi1", "two_li"), ("ssi1", "two_li"), max_steps=4),
    CliWorkload("cli_eq_n128", 128, max_steps=2000),
)}


def geomean(values) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))
