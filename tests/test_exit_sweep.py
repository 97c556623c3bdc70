"""The exit-code contract, swept over every configuration key.

Each case is the ``nch init-config`` template at N = 8 with 3 steps, for one
scheme and one of the policies ``enforce`` and ``warn``, with one key set to
an edge value.  The values come from the key's kind in ``config._SCHEMA``,
so a new key is swept without editing this file.  No case allocates beyond
N = 8: the keys that size arrays or count steps are capped (``CAPS``).  A
case passes when ``cli.main`` returns 0, 1, 2 or 3, raises nothing, and
issues no ``RuntimeWarning``, numpy's overflow warnings included.  The one
``RuntimeWarning`` allowed is the ``warn`` policy's own report of an
inadmissible step size, which only ``nch run`` issues.

The tier-1 test sweeps ``nch check``.  Run as a script, the module sweeps
``nch run`` the same way (1,520 cases, about 20 s; CI runs it):

    python tests/test_exit_sweep.py
"""

import contextlib
import io
import sys
import tempfile
import warnings
from pathlib import Path
from unittest import mock

from nchsolver import cli
from nchsolver.config import _SCHEMA, parse_config, template_config
from nchsolver.steppers import SCHEMES

POLICIES = ("enforce", "warn")
FLOATS = (0.0, -1.0, 5e-324, 1e-300, 1e-12, 1e12, 1e154, 1e300)
INTS = (-1, 0, 1, 2, 3, 8, 2**63, 10**38)
# Keys whose value sizes an array or counts steps, and the largest value swept.
CAPS = {"grid.N": 8, "model.kernel.images": 8, "run.max_steps": 3}


def _base(scheme: str, policy: str, directory: Path) -> dict[str, str]:
    """The template at N = 8 and 3 steps, one line per key; K and S valid for every scheme."""
    values = parse_config(template_config())
    del values["model.potential.type"]  # the scheme's own default
    values.update({"grid.N": 8, "run.max_steps": 3, "scheme.name": scheme,
                   "scheme.stability_policy": policy, "model.potential.K": 2.0, "scheme.S": 5.5,
                   "output.dir": directory / "out"})
    return {name: f"{name} = {value}" for name, value in values.items()}


def _edge_values(name: str, directory: Path) -> tuple:
    key = _SCHEMA[name]
    if key.kind == "float":
        return FLOATS
    if key.kind == "int":
        return tuple(v for v in INTS if v <= CAPS.get(name, v))
    if key.kind == "enum":
        return key.choices + ("bogus",)
    if key.kind == "path":
        junk = directory / "junk.nchf"
        junk.write_bytes(b"not a field file")
        return ("missing.nchf", junk.name)
    under_file = directory / "file"
    under_file.write_text("")
    return (directory / "other", under_file / "out")


def cases(directory: Path):
    """(id, config text) for every scheme, policy, key and edge value."""
    for scheme in SCHEMES:
        for policy in POLICIES:
            base = _base(scheme, policy, directory)
            for name in _SCHEMA:
                for value in _edge_values(name, directory):
                    lines = dict(base, **{name: f"{name} = {value}"})
                    yield f"{scheme}-{policy}-{name}={value}", "\n".join(lines.values()) + "\n"


def _policy_report(warning) -> bool:
    return " inadmissible at tau = " in str(warning.message)


def sweep(command: str, directory: Path) -> tuple[int, list[str]]:
    """Run ``nch <command>`` on every case; the number of cases and the failures.

    The cases share one argument parser, which ``cli.main`` would otherwise
    build anew for each.
    """
    failures, count = [], 0
    path = directory / "run.cfg"
    parser = cli._parser()
    for case, text in cases(directory):
        count += 1
        path.write_text(text)
        stderr = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(stderr), \
                contextlib.redirect_stdout(io.StringIO()):
            warnings.simplefilter("always")
            try:
                with mock.patch.object(cli, "_parser", lambda: parser):
                    code = cli.main([command, str(path)])
            except Exception as err:  # noqa: BLE001 -- the contract says none escapes
                failures.append(f"{case}: {type(err).__name__}: {err}")
                continue
        stray = [w for w in caught if issubclass(w.category, RuntimeWarning) and not _policy_report(w)]
        if code not in (0, 1, 2, 3) or stray or "RuntimeWarning" in stderr.getvalue():
            failures.append(f"{case}: exit {code}, warnings {[str(w.message) for w in stray]}")
    return count, failures


def test_check_exit_codes_over_every_key(tmp_path):
    count, failures = sweep("check", tmp_path)
    assert count > 500
    assert not failures, "\n".join(failures[:20])


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        count, failures = sweep("run", Path(tmp))
    print("\n".join(failures))
    print(f"nch run: {count} cases, {len(failures)} failures")
    sys.exit(1 if failures else 0)
