"""Every name a production module imports is read there."""

import ast
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import nchsolver

MODULES = sorted(path for path in Path(nchsolver.__file__).parent.glob("*.py")
                 if path.name != "__init__.py")


def _imported_names(tree: ast.Module) -> dict[str, int]:
    """Name bound by each import of the module (its alias, else its first dotted part) -> line."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
    return names


def _read_names(tree: ast.Module) -> set[str]:
    """Names the module loads, annotations included."""
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def test_production_modules_are_found():
    assert {"steppers.py", "spectral.py", "cli.py"} <= {path.name for path in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.stem)
def test_production_module_has_no_stale_import(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    read = _read_names(tree)
    stale = {name: line for name, line in _imported_names(tree).items() if name not in read}
    assert stale == {}, f"{path.name} imports names it never reads: {stale}"


# A fresh interpreter's whole life: check and runs of every scheme load no
# scipy.fft, scipy.special, scipy.sparse or scipy.integrate; the first
# Newton-Krylov step loads GMRES, and only verify loads the oracle suite.
FOOTPRINT = """
import sys, tempfile
from pathlib import Path
from nchsolver import cli
from nchsolver import (GridGeometry, KernelSpec, RunOptions, SchemeConfig, SchemeState, advance,
                       config, driver, make_cache, random_initial_field, sample_kernel, solvers)
from nchsolver.steppers import SCHEMES
with tempfile.TemporaryDirectory() as tmp:
    template = Path(tmp) / "run.cfg"
    template.write_text(config.template_config())
    assert cli.main(["check", str(template)]) == 0
geo = GridGeometry(8, 1.0)
kernel, cache = sample_kernel(KernelSpec.gaussian(130.0, 10.0), geo), make_cache(geo)
u0 = random_initial_field(geo, 0.0, 0.05, seed=7)
for scheme in SCHEMES:
    cfg = SchemeConfig(scheme, 1e-4, 1.0, stabilization=5.5, cutoff=2.0)
    result = driver.run(u0, cfg, kernel, cache, RunOptions(max_steps=3, eq_tol=1e-14))
    assert result.termination == "max_steps", result.error_detail
loaded = sorted(m for m in ("scipy.fft", "scipy.special", "scipy.sparse", "scipy.integrate")
                if m in sys.modules)
assert loaded == [], f"loaded by check and runs: {loaded}"
infos, real_gmres = [], solvers.gmres
def recording_gmres(*args, **kwargs):
    x, info = real_gmres(*args, **kwargs)
    infos.append(info)
    return x, info
solvers.gmres = recording_gmres
geo = GridGeometry(64, 1.0)
cfg = SchemeConfig("backward_euler", 7.9e-3, 1.0)
model = cfg.model(sample_kernel(KernelSpec.gaussian(3000.0, 1000.0), geo), make_cache(geo))
state, _ = advance(SchemeState(u=random_initial_field(geo, 0.0, 0.05, seed=7)), cfg, model)
state, _ = advance(state, cfg, model)
assert infos and all(info == 0 for info in infos), infos
assert "scipy.sparse.linalg" in sys.modules
assert cli.main(["verify"]) == 0
"""


def test_runs_load_neither_gmres_nor_the_oracle_suite_until_they_need_them():
    source = str(Path(nchsolver.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [source, os.environ.get("PYTHONPATH")])))
    started = time.perf_counter()
    done = subprocess.run([sys.executable, "-c", FOOTPRINT], env=env, capture_output=True,
                          text=True, timeout=60)
    elapsed = time.perf_counter() - started
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "10/10 checks passed", done.stdout
    assert elapsed < 3.0, f"the guard took {elapsed:.2f} s"
