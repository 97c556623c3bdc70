"""Flat, typed key-value run configuration with dotted section names.

Grammar (one assignment per line):

    # comment                        -- '#' starts a comment, blank lines ok
    grid.N = 32
    model.kernel.type = gaussian

Keys are drawn from a fixed schema; unknown or duplicate keys are rejected
with the offending key and line number.  Values are typed (int, float,
string, enumeration) and range-checked before any allocation happens;
floats must be finite.  The required keys and the cross-key rules are
checked against the keys the text gives, before any default is filled in.
Re-emitting a parsed configuration produces the canonical form: schema
order, resolved defaults, one assignment per line; parsing that text again
is the identity, and ``nch init-config`` prints it for a template run.  The
Newton iteration cap and the GMRES tolerance are constants of the solver,
not keys (``steppers.NEWTON_MAX_ITER``, ``solvers.KRYLOV_RTOL``).

The ``build_*`` functions turn the resolved values into a run's objects;
``cli._build`` calls every one of them for ``nch check`` and ``nch run``
alike.

The only environment override honored is ``OUTPUT_DIR`` (for
``output.dir``); command-line flags take precedence over both.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable, Optional

import numpy as np

from .driver import RunOptions, random_initial_field
from .energetics import _CUTOFF_MAX, POTENTIAL_VARIANTS, PotentialSpec, potential_value
from .errors import ConfigError
from .fieldio import read_field
from .grid import Field, GridGeometry
from .kernels import KERNEL_VARIANTS, KernelSpec, SampledKernel, sample_kernel
from .steppers import _SCHEMES, SchemeConfig, SCHEMES, STABILITY_POLICIES


@dataclass(frozen=True)
class _Key:
    name: str
    kind: str  # "int" | "float" | "str" | "enum" | "path"
    required: bool = False
    default: Any = None
    choices: tuple = ()
    check: Optional[Callable[[Any], Optional[str]]] = None


def _positive(what):
    return lambda v: None if v > 0 else f"{what} must be positive"


def _at_least(bound, what):
    return lambda v: None if v >= bound else f"{what} must be >= {bound}"


_SCHEMA: dict[str, _Key] = {k.name: k for k in (
    _Key("grid.N", "int", required=True, check=_at_least(2, "grid.N")),
    _Key("grid.L", "float", required=True, check=_positive("grid.L")),
    _Key("model.epsilon", "float", required=True, check=_positive("model.epsilon")),
    _Key("model.kernel.type", "enum", required=True, choices=KERNEL_VARIANTS),
    _Key("model.kernel.cJ", "float", check=_positive("model.kernel.cJ")),
    _Key("model.kernel.xi", "float", check=_positive("model.kernel.xi")),
    _Key("model.kernel.images", "int", default=3, check=_at_least(0, "model.kernel.images")),
    _Key("model.kernel.path", "path"),
    _Key("model.potential.type", "enum", choices=POTENTIAL_VARIANTS),
    _Key("model.potential.K", "float", check=lambda v: None if 1.0 < v <= _CUTOFF_MAX
         else f"model.potential.K must lie in (1, {_CUTOFF_MAX!r}]"),
    _Key("scheme.name", "enum", required=True, choices=SCHEMES),
    _Key("scheme.tau", "float", required=True, check=_positive("scheme.tau")),
    _Key("scheme.S", "float", default=0.0, check=_at_least(0.0, "scheme.S")),
    _Key("scheme.stability_policy", "enum", default="enforce", choices=STABILITY_POLICIES),
    _Key("solver.newton_tol", "float", default=1e-11, check=_positive("solver.newton_tol")),
    _Key("run.max_steps", "int", required=True, check=_at_least(1, "run.max_steps")),
    _Key("run.eq_tol", "float", default=1e-9, check=_positive("run.eq_tol")),
    _Key("run.record_every", "int", default=1, check=_at_least(1, "run.record_every")),
    _Key("run.snapshot_every", "int", default=0, check=_at_least(0, "run.snapshot_every")),
    _Key("run.seed", "int", default=0, check=_at_least(0, "run.seed")),
    _Key("run.init.mean", "float", default=0.0),
    _Key("run.init.delta", "float", default=0.05, check=_at_least(0.0, "run.init.delta")),
    _Key("run.init.snapshot_path", "path"),
    _Key("output.dir", "str", required=True),
)}


def _convert(key: _Key, raw: str, line_no: int):
    where = f"line {line_no}: key {key.name!r}"
    if key.kind == "enum" and raw not in key.choices:
        raise ConfigError(f"{where} must be one of {key.choices}, got {raw!r}")
    try:
        if key.kind == "int" and not raw.lstrip("+-").isdigit():
            raise ValueError
        value = {"int": int, "float": float}.get(key.kind, str)(raw)
    except ValueError:
        raise ConfigError(f"{where} expects a {key.kind}, got {raw!r}") from None
    if key.kind == "float" and not math.isfinite(value):
        raise ConfigError(f"{where} must be finite, got {raw!r}")
    return value


def _check_range(name: str, value, where: str) -> None:
    """Apply the schema's range rule of key ``name`` to ``value``; ``where`` says where it came from."""
    check = _SCHEMA[name].check
    if check is not None and (problem := check(value)):
        raise ConfigError(f"{where}{problem} (got {value!r})")


def parse_config(text: str) -> dict[str, Any]:
    """Parse and validate configuration text; returns the resolved mapping.

    The required keys and the cross-key rules are checked against the keys
    the text gives, and only then are the defaults filled in; under
    ``run.init.snapshot_path`` no ``run.init.*`` default is filled.
    """
    values: dict[str, Any] = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {line_no}: expected 'key = value', got {line.strip()!r}")
        raw_key, raw_value = (part.strip() for part in stripped.split("=", 1))
        if raw_key not in _SCHEMA:
            raise ConfigError(f"line {line_no}: unknown key {raw_key!r}")
        if raw_key in values:
            raise ConfigError(f"line {line_no}: duplicate key {raw_key!r}")
        values[raw_key] = _convert(_SCHEMA[raw_key], raw_value, line_no)
        _check_range(raw_key, values[raw_key], f"line {line_no}: ")

    for key in _SCHEMA.values():
        if key.required and key.name not in values:
            raise ConfigError(f"missing required key {key.name!r}")
    _validate_semantics(values)
    from_snapshot = "run.init.snapshot_path" in values
    for key in _SCHEMA.values():
        if key.default is not None and not (from_snapshot and key.name.startswith("run.init.")):
            values.setdefault(key.name, key.default)
    return values


def _validate_semantics(values: dict[str, Any]) -> None:
    """The cross-key rules; the one default they read, the potential's, is resolved here.

    That default is the potential the scheme requires, from its row in
    ``steppers``; a potential type the scheme does not take is rejected by
    ``SchemeConfig``, which owns that rule, when ``build_scheme_config``
    builds it.
    """
    kind = values["model.kernel.type"]
    if kind in ("gaussian", "constant") and "model.kernel.cJ" not in values:
        raise ConfigError(f"kernel type {kind!r} requires model.kernel.cJ")
    if kind == "gaussian" and "model.kernel.xi" not in values:
        raise ConfigError("gaussian kernel requires model.kernel.xi")
    if kind == "tabulated" and "model.kernel.path" not in values:
        raise ConfigError("tabulated kernel requires model.kernel.path")

    scheme = values["scheme.name"]
    potential = values.setdefault("model.potential.type", _SCHEMES[scheme].potential or "double_well")
    if potential == "truncated" and "model.potential.K" not in values:
        raise ConfigError("truncated potential requires model.potential.K")
    if scheme == "ssi1" and "scheme.S" not in values:
        raise ConfigError("ssi1 requires scheme.S")

    if "run.init.snapshot_path" in values and not values.keys().isdisjoint(
            {"run.init.mean", "run.init.delta"}):
        raise ConfigError(
            "run.init.snapshot_path excludes run.init.mean / run.init.delta")


def load_config(path) -> dict[str, Any]:
    """Read, parse, and resolve a configuration file.

    Relative file references (kernel table, initial snapshot) are resolved
    against the configuration file's directory and checked for existence.
    """
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as err:
        raise ConfigError(f"cannot read config {path}: {err}") from err
    values = parse_config(text)
    base = path.resolve().parent
    for name, key in _SCHEMA.items():
        if key.kind == "path" and name in values:
            resolved = (base / values[name]).resolve() if not Path(values[name]).is_absolute() \
                else Path(values[name])
            if not resolved.is_file():
                raise ConfigError(f"key {name!r} references a missing file: {resolved}")
            values[name] = str(resolved)
    return values


def emit_config(values: dict[str, Any]) -> str:
    """Render the canonical form: schema order, one assignment per line."""
    lines = []
    for name, key in _SCHEMA.items():
        if name in values:
            value = values[name]
            lines.append(f"{name} = {repr(float(value)) if key.kind == 'float' else value}")
    return "\n".join(lines) + "\n"


def template_config() -> str:
    """A ready-to-edit configuration: a comment line, then the canonical form of a run."""
    return "# nch run configuration (key = value, '#' starts a comment)\n" + emit_config(parse_config(
        "grid.N = 32\ngrid.L = 1.0\nmodel.epsilon = 1.0\nmodel.kernel.type = gaussian\n"
        "model.kernel.cJ = 12.5\nmodel.kernel.xi = 10.0\nscheme.name = backward_euler\n"
        "scheme.tau = 0.01\nrun.max_steps = 100000\nrun.seed = 1234\noutput.dir = out\n"))


def apply_overrides(values: dict[str, Any], output_dir: Optional[str] = None,
                    seed: Optional[int] = None, max_steps: Optional[int] = None,
                    env: Optional[dict] = None) -> dict[str, Any]:
    """Apply the CLI/environment overrides; flags beat OUTPUT_DIR beats the file."""
    env = os.environ if env is None else env
    out = dict(values)
    if env.get("OUTPUT_DIR"):
        out["output.dir"] = env["OUTPUT_DIR"]
    if output_dir is not None:
        out["output.dir"] = output_dir
    for name, flag, value in (("run.seed", "--seed", seed), ("run.max_steps", "--max-steps", max_steps)):
        if value is not None:
            _check_range(name, value, f"{flag}: ")
            out[name] = int(value)
    return out


def build_geometry(values: dict[str, Any]) -> GridGeometry:
    try:
        return GridGeometry(values["grid.N"], values["grid.L"])
    except ValueError as err:  # grid.N >= 2 is checked on parsing: grid.L is out of range
        raise ConfigError(f"key 'grid.L': {err}") from err


def _read_field_key(values: dict[str, Any], name: str, geometry: GridGeometry) -> Field:
    """The field in the file named by key ``name``; any read failure is a ConfigError."""
    path = values[name]
    try:
        field, _ = read_field(path)
    except (OSError, ValueError) as err:
        raise ConfigError(f"key {name!r}: cannot read field file {path}: {err}") from err
    if field.geometry != geometry:
        raise ConfigError(
            f"key {name!r}: field grid {field.geometry} does not match run grid {geometry}")
    return field


def build_kernel(values: dict[str, Any], geometry: GridGeometry) -> SampledKernel:
    """Sample the configured kernel; a scale that overflows on the way is a ConfigError.

    The domain sets the kernel's scales (the squared distances to its
    images, h^2 J): at grid.L = 1e154 they leave the float range and the
    run would go on with a kernel of mass 2e307.  The model scales the
    kernel by eps^2, and eps^2 [J (*) 1] must stay finite too.  A table
    that is not even is a ConfigError naming ``model.kernel.path``.
    """
    kind = values["model.kernel.type"]
    if kind == "gaussian":
        spec = KernelSpec.gaussian(values["model.kernel.cJ"], values["model.kernel.xi"],
                                   values["model.kernel.images"])
    elif kind == "constant":
        spec = KernelSpec.constant(values["model.kernel.cJ"])
    else:
        spec = KernelSpec.tabulated(_read_field_key(values, "model.kernel.path", geometry).values)
    try:
        with np.errstate(over="raise"):
            kernel = sample_kernel(spec, geometry)
    except FloatingPointError as err:
        raise ConfigError(f"key {_overflowing_key(spec, geometry)!r}: the kernel's scales overflow "
                          f"on a domain of edge {geometry.length!r} with this kernel ({err})") from err
    except ConfigError as err:  # sampling checks only a table: its shape and evenness
        raise ConfigError(f"key 'model.kernel.path': {err}") from err
    epsilon = values["model.epsilon"]
    if not math.isfinite(epsilon * epsilon * kernel.conv_one):
        raise ConfigError(f"key 'model.epsilon': eps^2 [J (*) 1] overflows at eps = {epsilon!r}")
    return kernel


def _overflowing_key(spec: KernelSpec, geometry: GridGeometry) -> str:
    """The key that made the kernel's sampling overflow: the table, else the amplitude if
    the kernel samples at unit amplitude, else the domain."""
    if spec.variant == "tabulated":
        return "model.kernel.path"
    try:
        with np.errstate(over="raise"):
            sample_kernel(replace(spec, amplitude=1.0), geometry)
    except FloatingPointError:
        return "grid.L"
    return "model.kernel.cJ"


def build_scheme_config(values: dict[str, Any]) -> SchemeConfig:
    """The run's ``SchemeConfig``; its stability policy is applied by ``steppers.advance``, not here."""
    return SchemeConfig(
        scheme=values["scheme.name"],
        tau=values["scheme.tau"],
        epsilon=values["model.epsilon"],
        stabilization=values["scheme.S"],
        newton_tol=values["solver.newton_tol"],
        stability_policy=values["scheme.stability_policy"],
        potential_variant=values["model.potential.type"],
        **({"cutoff": values["model.potential.K"]} if "model.potential.K" in values else {}),
    )


def build_run_options(values: dict[str, Any], snapshot_dir: Optional[Path]) -> RunOptions:
    return RunOptions(
        max_steps=values["run.max_steps"],
        eq_tol=values["run.eq_tol"],
        record_every=values["run.record_every"],
        snapshot_every=values["run.snapshot_every"],
        snapshot_dir=snapshot_dir if values["run.snapshot_every"] > 0 else None,
    )


def build_initial_field(values: dict[str, Any], geometry: GridGeometry) -> Field:
    """The initial field; one outside the float range, or on which F(u) overflows, is a ConfigError.

    The energy and the step-0 chemical potential need F and F' finite on it.
    """
    if "run.init.snapshot_path" in values:
        keys = "key 'run.init.snapshot_path'"
        field = _read_field_key(values, "run.init.snapshot_path", geometry)
    else:
        keys = "keys 'run.init.mean' and 'run.init.delta'"
        try:
            field = random_initial_field(geometry, values["run.init.mean"],
                                         values["run.init.delta"], values["run.seed"])
        except (OverflowError, ValueError) as err:  # the sample's range or values overflow
            raise ConfigError(f"{keys}: the initial field leaves the float range ({err})") from err
    potential = PotentialSpec(values["model.potential.type"], values.get("model.potential.K"))
    with np.errstate(over="ignore", invalid="ignore"):
        bulk = potential_value(potential, field.values)
    if not np.isfinite(bulk).all():
        raise ConfigError(f"{keys}: the potential F(u) overflows on the initial field "
                          f"(max |u| = {float(np.abs(field.values).max()):.3e})")
    return field
