"""Flat, typed key-value run configuration with dotted section names.

Grammar (one assignment per line):

    # comment                        -- '#' starts a comment, blank lines ok
    grid.N = 32
    model.kernel.type = gaussian

Keys are drawn from a fixed schema; unknown or duplicate keys are rejected
with the offending key and line number.  Values are typed (int, float,
string, enumeration) and range-checked before any allocation happens;
floats must be finite.  Re-emitting a parsed configuration produces the
canonical form: schema order, resolved defaults, one assignment per line;
parsing that text again is the identity.

The only environment override honored is ``OUTPUT_DIR`` (for
``output.dir``); command-line flags take precedence over both.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Optional

from .driver import RunOptions, random_initial_field
from .errors import ConfigError
from .fieldio import read_field
from .grid import Field, GridGeometry
from .kernels import KernelSpec, SampledKernel, sample_kernel
from .steppers import SchemeConfig, SCHEMES, STABILITY_POLICIES


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
    _Key("model.kernel.type", "enum", required=True, choices=("gaussian", "constant", "tabulated")),
    _Key("model.kernel.cJ", "float", check=_positive("model.kernel.cJ")),
    _Key("model.kernel.xi", "float", check=_positive("model.kernel.xi")),
    _Key("model.kernel.images", "int", default=3, check=_at_least(0, "model.kernel.images")),
    _Key("model.kernel.path", "path"),
    _Key("model.potential.type", "enum", choices=("double_well", "truncated")),
    _Key("model.potential.K", "float", check=lambda v: None if v > 1.0 else "model.potential.K must exceed 1"),
    _Key("scheme.name", "enum", required=True, choices=SCHEMES),
    _Key("scheme.tau", "float", required=True, check=_positive("scheme.tau")),
    _Key("scheme.S", "float", default=0.0, check=_at_least(0.0, "scheme.S")),
    _Key("scheme.stability_policy", "enum", default="enforce", choices=STABILITY_POLICIES),
    _Key("solver.newton_tol", "float", default=1e-11, check=_positive("solver.newton_tol")),
    _Key("solver.newton_max_iter", "int", default=50, check=_at_least(1, "solver.newton_max_iter")),
    _Key("solver.krylov_tol", "float", default=1e-12, check=_positive("solver.krylov_tol")),
    _Key("run.max_steps", "int", required=True, check=_at_least(1, "run.max_steps")),
    _Key("run.eq_tol", "float", default=1e-9, check=_positive("run.eq_tol")),
    _Key("run.record_every", "int", default=1, check=_at_least(1, "run.record_every")),
    _Key("run.snapshot_every", "int", default=0, check=_at_least(0, "run.snapshot_every")),
    _Key("run.seed", "int", default=0),
    _Key("run.init.mean", "float", default=0.0),
    _Key("run.init.delta", "float", default=0.05, check=_at_least(0.0, "run.init.delta")),
    _Key("run.init.snapshot_path", "path"),
    _Key("output.dir", "str", required=True),
)}


def _convert(key: _Key, raw: str, line_no: int):
    try:
        if key.kind == "int":
            if not raw.lstrip("+-").isdigit():
                raise ValueError
            return int(raw)
        if key.kind == "float":
            if not math.isfinite(value := float(raw)):
                raise ConfigError(f"line {line_no}: key {key.name!r} must be finite, got {raw!r}")
            return value
        if key.kind == "enum":
            if raw not in key.choices:
                raise ConfigError(
                    f"line {line_no}: key {key.name!r} must be one of {key.choices}, got {raw!r}")
            return raw
        return raw
    except ConfigError:
        raise
    except ValueError:
        raise ConfigError(f"line {line_no}: key {key.name!r} expects a {key.kind}, got {raw!r}") from None


def parse_config(text: str) -> dict[str, Any]:
    """Parse and validate configuration text; returns the resolved mapping."""
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
        key = _SCHEMA[raw_key]
        value = _convert(key, raw_value, line_no)
        if key.check is not None:
            problem = key.check(value)
            if problem:
                raise ConfigError(f"line {line_no}: {problem} (got {raw_value!r})")
        values[raw_key] = value

    provided = frozenset(values)
    for key in _SCHEMA.values():
        if key.required and key.name not in values:
            raise ConfigError(f"missing required key {key.name!r}")
        if key.name not in values and key.default is not None:
            values[key.name] = key.default

    _validate_semantics(values, provided)
    return values


def _validate_semantics(values: dict[str, Any], provided: frozenset) -> None:
    kind = values["model.kernel.type"]
    if kind in ("gaussian", "constant") and "model.kernel.cJ" not in values:
        raise ConfigError(f"kernel type {kind!r} requires model.kernel.cJ")
    if kind == "gaussian" and "model.kernel.xi" not in values:
        raise ConfigError("gaussian kernel requires model.kernel.xi")
    if kind == "tabulated" and "model.kernel.path" not in values:
        raise ConfigError("tabulated kernel requires model.kernel.path")

    scheme = values["scheme.name"]
    if "model.potential.type" not in values:
        values["model.potential.type"] = "truncated" if scheme in ("ssi1", "two_li") else "double_well"
    if scheme in ("ssi1", "two_li") and values["model.potential.type"] != "truncated":
        raise ConfigError(f"scheme {scheme!r} requires model.potential.type = truncated")
    if values["model.potential.type"] == "truncated" and "model.potential.K" not in values:
        raise ConfigError("truncated potential requires model.potential.K")
    if scheme == "ssi1" and "scheme.S" not in values:
        raise ConfigError("ssi1 requires scheme.S")

    if "run.init.snapshot_path" in provided and not provided.isdisjoint(
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
    for name in ("model.kernel.path", "run.init.snapshot_path"):
        if name in values:
            resolved = (base / values[name]).resolve() if not Path(values[name]).is_absolute() \
                else Path(values[name])
            if not resolved.is_file():
                raise ConfigError(f"key {name!r} references a missing file: {resolved}")
            values[name] = str(resolved)
    return values


def emit_config(values: dict[str, Any]) -> str:
    """Render the canonical form: schema order, one assignment per line."""
    lines = []
    suppressed = {"run.init.mean", "run.init.delta"} if "run.init.snapshot_path" in values else set()
    for name, key in _SCHEMA.items():
        if name not in values or name in suppressed:
            continue
        value = values[name]
        rendered = repr(float(value)) if key.kind == "float" else str(value)
        lines.append(f"{name} = {rendered}")
    return "\n".join(lines) + "\n"


def template_config() -> str:
    """A ready-to-edit configuration covering the common keys."""
    return "\n".join([
        "# nch run configuration (key = value, '#' starts a comment)",
        "grid.N = 32",
        "grid.L = 1.0",
        "model.epsilon = 1.0",
        "model.kernel.type = gaussian",
        "model.kernel.cJ = 12.5",
        "model.kernel.xi = 10.0",
        "model.kernel.images = 3",
        "model.potential.type = double_well",
        "scheme.name = backward_euler",
        "scheme.tau = 0.01",
        "scheme.stability_policy = enforce",
        "solver.newton_tol = 1e-11",
        "solver.newton_max_iter = 50",
        "solver.krylov_tol = 1e-12",
        "run.max_steps = 100000",
        "run.eq_tol = 1e-9",
        "run.record_every = 1",
        "run.snapshot_every = 0",
        "run.seed = 1234",
        "run.init.mean = 0.0",
        "run.init.delta = 0.05",
        "output.dir = out",
    ]) + "\n"


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
    if seed is not None:
        out["run.seed"] = int(seed)
    if max_steps is not None:
        if max_steps < 1:
            raise ConfigError("run.max_steps must be >= 1")
        out["run.max_steps"] = int(max_steps)
    return out


def build_geometry(values: dict[str, Any]) -> GridGeometry:
    return GridGeometry(values["grid.N"], values["grid.L"])


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
    kind = values["model.kernel.type"]
    if kind == "gaussian":
        spec = KernelSpec.gaussian(values["model.kernel.cJ"], values["model.kernel.xi"],
                                   values["model.kernel.images"])
    elif kind == "constant":
        spec = KernelSpec.constant(values["model.kernel.cJ"])
    else:
        spec = KernelSpec.tabulated(_read_field_key(values, "model.kernel.path", geometry).values)
    return sample_kernel(spec, geometry)


def build_scheme_config(values: dict[str, Any]) -> SchemeConfig:
    return SchemeConfig(
        scheme=values["scheme.name"],
        tau=values["scheme.tau"],
        epsilon=values["model.epsilon"],
        stabilization=values.get("scheme.S", 0.0),
        cutoff=values.get("model.potential.K", 2.0),
        newton_tol=values["solver.newton_tol"],
        newton_max_iter=values["solver.newton_max_iter"],
        krylov_tol=values["solver.krylov_tol"],
        stability_policy=values["scheme.stability_policy"],
        potential_variant=values["model.potential.type"],
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
    if "run.init.snapshot_path" in values:
        return _read_field_key(values, "run.init.snapshot_path", geometry)
    return random_initial_field(geometry, values["run.init.mean"],
                                values["run.init.delta"], values["run.seed"])
