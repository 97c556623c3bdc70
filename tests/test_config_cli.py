import struct
import warnings

import numpy as np
import pytest

from nchsolver import ConfigError, Field, GridGeometry, RunOptions, SchemeConfig, SolverError, verify
from nchsolver.cli import main
from nchsolver.config import (apply_overrides, build_initial_field, build_kernel,
                              build_scheme_config, emit_config, load_config,
                              parse_config, template_config)
from nchsolver.fieldio import write_field
from nchsolver.oracles import kernel_table

from conftest import negative_gap_table

BASE = """
grid.N = 8
grid.L = 1.0
model.epsilon = 1.0
model.kernel.type = gaussian
model.kernel.cJ = 12.5
model.kernel.xi = 10.0
scheme.name = backward_euler
scheme.tau = 0.05
run.max_steps = 50
output.dir = {out}
run.seed = 3
"""


def _write_config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_template_parses_cleanly():
    values = parse_config(template_config())
    assert values["grid.N"] == 32
    assert values["scheme.name"] == "backward_euler"


def test_parse_rejects_unknown_key():
    with pytest.raises(ConfigError, match="grid.M"):
        parse_config("grid.M = 3\n")


def test_parse_rejects_duplicate_and_bad_types():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config("grid.N = 8\ngrid.N = 16\n")
    with pytest.raises(ConfigError, match="expects a int"):
        parse_config("grid.N = 8.5\n")
    with pytest.raises(ConfigError, match="must be positive"):
        parse_config(BASE.format(out="o").replace("scheme.tau = 0.05", "scheme.tau = -1"))


def test_parse_requires_conditional_keys():
    text = BASE.format(out="o").replace("model.kernel.xi = 10.0\n", "")
    with pytest.raises(ConfigError, match="model.kernel.xi"):
        parse_config(text)
    text = BASE.format(out="o").replace("backward_euler", "ssi1")
    with pytest.raises(ConfigError, match="model.potential.K"):
        parse_config(text)


@pytest.mark.parametrize("kind", ["gaussian", "constant"])
def test_cli_check_kernel_without_its_amplitude_exits_2(tmp_path, capsys, kind):
    text = BASE.format(out="o").replace("model.kernel.cJ = 12.5\n", "")
    if kind == "constant":
        text = text.replace("gaussian", "constant").replace("model.kernel.xi = 10.0\n", "")
    assert main(["check", str(_write_config(tmp_path, text))]) == 2
    err = capsys.readouterr().err
    assert f"configuration error: kernel type {kind!r} requires model.kernel.cJ" in err


def test_cli_solver_error_exits_3(monkeypatch, capsys):
    # A SolverError that reaches main is reported, not raised.
    def fail():
        raise SolverError("no descent direction")

    monkeypatch.setattr(verify, "run_all_checks", fail)
    assert main(["verify"]) == 3
    assert capsys.readouterr().err == "solver error: no descent direction\n"


@pytest.mark.parametrize("cls, kwargs, match", [
    pytest.param(SchemeConfig, {"scheme": "crank_nicolson"}, "unknown scheme", id="scheme"),
    pytest.param(SchemeConfig, {"tau": 0.0}, "time step must be positive", id="tau"),
    pytest.param(SchemeConfig, {"tau": 5e-324}, "time step must be positive", id="tau_subnormal"),
    pytest.param(SchemeConfig, {"tau": float("inf")}, "time step must be positive", id="tau_inf"),
    pytest.param(SchemeConfig, {"epsilon": -1.0}, "interface parameter", id="epsilon"),
    pytest.param(SchemeConfig, {"epsilon": float("inf")}, "interface parameter", id="epsilon_inf"),
    pytest.param(SchemeConfig, {"stabilization": -1.0}, "stabilization constant", id="S"),
    pytest.param(SchemeConfig, {"stabilization": float("nan")}, "stabilization constant", id="S_nan"),
    pytest.param(SchemeConfig, {"stabilization": float("inf")}, "stabilization constant", id="S_inf"),
    pytest.param(SchemeConfig, {"cutoff": 1.0}, "truncation point K", id="cutoff"),
    pytest.param(SchemeConfig, {"cutoff": 1e300}, "truncation point K", id="cutoff_overflow"),
    pytest.param(SchemeConfig, {"newton_tol": 0.0}, "Newton tolerance", id="newton_tol"),
    pytest.param(SchemeConfig, {"newton_tol": float("inf")}, "Newton tolerance", id="newton_tol_inf"),
    pytest.param(SchemeConfig, {"stability_policy": "strict"}, "unknown stability policy",
                 id="policy"),
    pytest.param(SchemeConfig, {"potential_variant": "quartic"}, "unknown potential variant",
                 id="potential"),
    pytest.param(SchemeConfig, {"scheme": "convex_splitting", "potential_variant": "truncated"},
                 "requires the double_well potential", id="convex_splitting_truncated"),
    pytest.param(SchemeConfig, {"scheme": "two_li", "potential_variant": "double_well"},
                 "requires the truncated potential", id="two_li_double_well"),
    pytest.param(RunOptions, {"max_steps": 0}, "max_steps", id="max_steps"),
    pytest.param(RunOptions, {"eq_tol": float("nan")}, "eq_tol", id="eq_tol_nan"),
    pytest.param(RunOptions, {"eq_tol": 0.0}, "eq_tol", id="eq_tol_zero"),
    pytest.param(RunOptions, {"eq_tol": -1e-9}, "eq_tol", id="eq_tol_negative"),
    pytest.param(RunOptions, {"record_every": 0}, "record_every", id="record_every"),
    pytest.param(RunOptions, {"snapshot_every": -1}, "snapshot_every", id="snapshot_every"),
    pytest.param(RunOptions, {"snapshot_every": 5}, "no snapshot directory", id="snapshot_dir"),
])
def test_library_configs_validate_without_the_schema(cls, kwargs, match):
    # Library callers build these directly, with no config schema in front.
    base = {SchemeConfig: dict(scheme="backward_euler", tau=0.1, epsilon=1.0),
            RunOptions: dict(max_steps=10)}[cls]
    with pytest.raises(ConfigError, match=match):
        cls(**{**base, **kwargs})


def test_round_trip_is_idempotent():
    values = parse_config(BASE.format(out="out"))
    canonical = emit_config(values)
    assert emit_config(parse_config(canonical)) == canonical


def test_overrides_precedence():
    values = parse_config(BASE.format(out="from_file"))
    merged = apply_overrides(values, output_dir=None, env={"OUTPUT_DIR": "from_env"})
    assert merged["output.dir"] == "from_env"
    merged = apply_overrides(values, output_dir="from_flag", env={"OUTPUT_DIR": "from_env"})
    assert merged["output.dir"] == "from_flag"
    merged = apply_overrides(values, seed=99, max_steps=7, env={})
    assert merged["run.seed"] == 99 and merged["run.max_steps"] == 7


def test_load_config_checks_referenced_files(tmp_path):
    cfg = _write_config(tmp_path, BASE.format(out="o") + "run.init.snapshot_path = missing.nchf\n")
    with pytest.raises(ConfigError, match="missing file"):
        load_config(cfg)


def test_unreadable_field_file_is_config_error(tmp_path):
    # load_config rejects a directory; the builders map the read failure too.
    with pytest.raises(ConfigError, match="run.init.snapshot_path"):
        build_initial_field({"run.init.snapshot_path": str(tmp_path)}, GridGeometry(8, 1.0))


def test_snapshot_init_excludes_random_init_keys(tmp_path):
    snap = tmp_path / "u0.nchf"
    write_field(snap, Field(GridGeometry(8, 1.0), np.full((8, 8), 0.1)))
    text = BASE.format(out="o") + f"run.init.snapshot_path = {snap}\nrun.init.delta = 0.1\n"
    with pytest.raises(ConfigError, match="excludes"):
        parse_config(text)


def test_build_initial_field_from_snapshot(tmp_path):
    snap = tmp_path / "u0.nchf"
    u = Field(GridGeometry(8, 1.0), np.full((8, 8), 0.25))
    write_field(snap, u)
    cfg = _write_config(tmp_path, BASE.format(out="o") + f"run.init.snapshot_path = {snap}\n")
    values = load_config(cfg)
    loaded = build_initial_field(values, GridGeometry(8, 1.0))
    assert np.array_equal(loaded.values, u.values)


def test_build_kernel_tabulated_roundtrip(tmp_path):
    geo = GridGeometry(8, 1.0)
    rng = np.random.default_rng(0)
    raw = rng.uniform(0.5, 1.0, (8, 8))
    even = 0.5 * (raw + np.roll(raw[::-1, ::-1], 1, axis=(0, 1)))
    table = tmp_path / "kernel.nchf"
    write_field(table, Field(geo, even))
    text = BASE.format(out="o").replace("model.kernel.type = gaussian", "model.kernel.type = tabulated")
    text = text.replace("model.kernel.cJ = 12.5\n", "").replace("model.kernel.xi = 10.0\n", "")
    cfg = _write_config(tmp_path, text + f"model.kernel.path = {table}\n")
    values = load_config(cfg)
    kernel = build_kernel(values, geo)
    assert np.abs(kernel_table(kernel) - even).max() <= 1e-15


def test_scheme_config_built_from_values():
    values = parse_config(BASE.format(out="o").replace("backward_euler", "ssi1")
                          + "model.potential.K = 2.0\nscheme.S = 5.5\n")
    cfg = build_scheme_config(values)
    assert cfg.scheme == "ssi1" and cfg.stabilization == 5.5 and cfg.cutoff == 2.0


# --- CLI ----------------------------------------------------------------------

def test_cli_run_constant_init_one_step(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = _write_config(tmp_path, BASE.format(out=out) + "run.init.delta = 0.0\n")
    code = main(["run", str(cfg)])
    assert code == 0
    csv = (out / "diagnostics.csv").read_text().strip().splitlines()
    assert len(csv) == 3  # header, step 0, terminating step 1
    assert (out / "summary.txt").read_text().startswith("termination: equilibrium")
    assert (out / "u_final.nchf").exists()
    assert (out / "checkpoint.nchk").exists()


def test_cli_run_malformed_key_exits_2(tmp_path, capsys):
    cfg = _write_config(tmp_path, BASE.format(out="o") + "grid.shape = 3\n")
    assert main(["run", str(cfg)]) == 2
    assert "grid.shape" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "check"])
@pytest.mark.parametrize("case, message", [
    ("no_equals", "expected 'key = value'"),
    ("missing_key", "missing required key 'scheme.tau'"),
    ("unreadable", "cannot read config"),
    ("snapshot_grid", "does not match run grid"),
])
def test_cli_malformed_config_exits_2(tmp_path, capsys, command, case, message):
    text = BASE.format(out=tmp_path / "o")
    if case == "no_equals":
        cfg = _write_config(tmp_path, text + "grid.N 8\n")
    elif case == "missing_key":
        cfg = _write_config(tmp_path, text.replace("scheme.tau = 0.05\n", ""))
    elif case == "unreadable":
        cfg = tmp_path  # a directory
    else:
        write_field(tmp_path / "u0.nchf", Field(GridGeometry(16, 1.0), np.full((16, 16), 0.1)))
        cfg = _write_config(tmp_path, text + "run.init.snapshot_path = u0.nchf\n")
    assert main([command, str(cfg)]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("key", ["solver.krylov_tol", "solver.newton_max_iter"])
def test_cli_run_removed_solver_keys_exit_2(tmp_path, capsys, key):
    # Templates of older versions wrote both keys; they are unknown keys now.
    text = BASE.format(out="o")
    cfg = _write_config(tmp_path, text + f"{key} = 1\n")
    assert main(["run", str(cfg)]) == 2
    line = len(text.splitlines()) + 1
    assert f"line {line}: unknown key {key!r}" in capsys.readouterr().err


@pytest.mark.parametrize("where", ["existing_file", "under_a_file"])
def test_cli_run_unusable_output_dir_exits_2(tmp_path, capsys, where):
    taken = tmp_path / "taken"
    taken.write_text("not a directory\n")
    out = taken if where == "existing_file" else taken / "out"
    cfg = _write_config(tmp_path, BASE.format(out=out))
    assert main(["run", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and "output.dir" in err
    assert "Traceback" not in err
    assert taken.read_text() == "not a directory\n"


@pytest.mark.parametrize("blocked, extra", [
    ("diagnostics.csv", ""),
    ("u_00000002.nchf", "run.snapshot_every = 2\n"),  # written inside the run
], ids=["diagnostics", "snapshot"])
def test_cli_run_unwritable_output_file_exits_2(tmp_path, capsys, blocked, extra):
    out = tmp_path / "out"
    (out / blocked).mkdir(parents=True)
    cfg = _write_config(tmp_path, BASE.format(out=out) + extra)
    assert main(["run", str(cfg), "--max-steps", "3"]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and "output.dir" in err and blocked in err
    assert "Traceback" not in err


DIVERGING = """
grid.N = 16
grid.L = 1.0
model.epsilon = 0.2
model.kernel.type = gaussian
model.kernel.cJ = 130.0
model.kernel.xi = 10.0
model.potential.type = truncated
model.potential.K = 1.1
scheme.name = two_li
scheme.tau = 0.1
scheme.stability_policy = ignore
run.max_steps = 100
run.seed = 1
run.init.delta = 3.0
output.dir = {out}
"""


def test_cli_run_diverging_step_exits_3(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = _write_config(tmp_path, DIVERGING.format(out=out))
    with np.errstate(all="ignore"):
        assert main(["run", str(cfg)]) == 3
    summary = (out / "summary.txt").read_text()
    assert summary.startswith("termination: error")
    assert "detail: step " in summary


def test_cli_run_monotone_energy_column(tmp_path):
    out = tmp_path / "out"
    cfg = _write_config(tmp_path, BASE.format(out=out))
    assert main(["run", str(cfg)]) == 0
    rows = (out / "diagnostics.csv").read_text().strip().splitlines()[1:]
    energies = [float(r.split(",")[3]) for r in rows]
    assert all(b <= a + 1e-10 * (1 + abs(a)) for a, b in zip(energies, energies[1:]))


CORRUPTIONS = {
    "empty": lambda blob: b"",
    "bad_magic": lambda blob: b"NOPE" + blob[4:],
    "truncated_header": lambda blob: blob[:12],
    "truncated_values": lambda blob: blob[:-8],
    "trailing_bytes": lambda blob: blob + bytes(8),
    "non_finite": lambda blob: blob[:-8] + struct.pack("<d", float("nan")),
}


def _corrupt_field_file_exit(tmp_path, capsys, kind, key, command):
    path = tmp_path / "field.nchf"
    write_field(path, Field(GridGeometry(8, 1.0), np.full((8, 8), 0.5)))
    path.write_bytes(CORRUPTIONS[kind](path.read_bytes()))
    text = BASE.format(out=tmp_path / "out")
    if key == "model.kernel.path":
        text = text.replace("model.kernel.type = gaussian", "model.kernel.type = tabulated")
        text = text.replace("model.kernel.cJ = 12.5\n", "").replace("model.kernel.xi = 10.0\n", "")
    cfg = _write_config(tmp_path, text + f"{key} = {path}\n")
    assert main([command, str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and key in err
    assert "Traceback" not in err


@pytest.mark.parametrize("key", ["run.init.snapshot_path", "model.kernel.path"])
@pytest.mark.parametrize("kind", CORRUPTIONS)
def test_cli_run_corrupt_field_file_exits_2(tmp_path, capsys, kind, key):
    _corrupt_field_file_exit(tmp_path, capsys, kind, key, "run")


@pytest.mark.parametrize("key", ["run.init.snapshot_path", "model.kernel.path"])
@pytest.mark.parametrize("kind", CORRUPTIONS)
def test_cli_check_corrupt_field_file_exits_2(tmp_path, capsys, kind, key):
    # check builds the initial field and the kernel as run does.
    _corrupt_field_file_exit(tmp_path, capsys, kind, key, "check")


def test_cli_check_admissible_and_not(tmp_path, capsys):
    cfg = _write_config(tmp_path, BASE.format(out="o"))
    assert main(["check", str(cfg)]) == 0
    txt = capsys.readouterr().out
    assert "verdict: admissible" in txt and "gamma0:" in txt and "margin:" in txt

    bad = BASE.format(out="o").replace("model.kernel.cJ = 12.5", "model.kernel.cJ = 0.5")
    cfg2 = _write_config(tmp_path, bad, name="bad.cfg")
    assert main(["check", str(cfg2)]) == 1
    assert "inadmissible" in capsys.readouterr().out


def test_cli_check_covers_the_bootstrap_step(tmp_path, capsys):
    # The bdf2 step is admissible, its backward-Euler bootstrap is not, so the
    # run fails at step 1: check must say inadmissible too.
    text = BASE.format(out=tmp_path / "out").replace("grid.N = 8", "grid.N = 32") \
        .replace("cJ = 12.5", "cJ = 3000.0").replace("xi = 10.0", "xi = 1000.0") \
        .replace("backward_euler", "bdf2").replace("tau = 0.05", "tau = 0.01") \
        .replace("run.seed = 3", "run.seed = 7")
    cfg = _write_config(tmp_path, text)
    assert main(["check", str(cfg)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert float(next(l.split(": ")[1] for l in lines if l.startswith("margin:"))) > 0.0
    assert any(l.startswith("bootstrap: backward_euler inadmissible") for l in lines)
    assert lines[-1] == "verdict: inadmissible"
    assert main(["run", str(cfg)]) == 3
    assert "step 1: backward_euler inadmissible" in (tmp_path / "out" / "summary.txt").read_text()


def _check_lines(tmp_path, capsys, text):
    main(["check", str(_write_config(tmp_path, text))])
    return capsys.readouterr().out.splitlines()


@pytest.mark.parametrize("n", [32, 64, 128])
def test_cli_check_counts_the_growing_modes_of_the_phase_separating_problem(tmp_path, capsys, n):
    # cJ = 3000, xi = 1000, eps = 1, K = 1.05, S = beta/2, mean 0: F''(0) = -1
    # and 21 half-spectrum modes have G_m < 1 at every N.
    text = BASE.format(out=tmp_path / "out").replace("grid.N = 8", f"grid.N = {n}") \
        .replace("cJ = 12.5", "cJ = 3000.0").replace("xi = 10.0", "xi = 1000.0") \
        .replace("backward_euler", "ssi1").replace("tau = 0.05", "tau = 0.001") \
        .replace("run.seed = 3", "run.seed = 7") \
        + f"model.potential.K = 1.05\nscheme.S = {(3 * 1.05**2 - 1) / 2!r}\n"
    lines = _check_lines(tmp_path, capsys, text)
    assert lines[-2:] == ["growing_modes: 21", "verdict: admissible"]


def test_cli_check_finds_no_growing_mode_on_the_benchmark_problem(tmp_path, capsys):
    text = BASE.format(out=tmp_path / "out").replace("grid.N = 8", "grid.N = 64") \
        .replace("cJ = 12.5", "cJ = 130.0").replace("tau = 0.05", "tau = 0.0001") \
        .replace("run.seed = 3", "run.seed = 7")
    lines = _check_lines(tmp_path, capsys, text)
    assert lines[-2:] == ["growing_modes: 0", "verdict: admissible"]


def test_cli_check_reports_admissible_bootstrap(tmp_path, capsys):
    text = BASE.format(out=tmp_path / "out").replace("backward_euler", "two_li") \
        .replace("cJ = 12.5", "cJ = 130.0").replace("tau = 0.05", "tau = 0.001") \
        + "model.potential.K = 2.0\n"
    cfg = _write_config(tmp_path, text)
    assert main(["check", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "bootstrap: ssi1 admissible" in out and out.endswith("verdict: admissible\n")
    assert main(["run", str(cfg)]) == 0


def test_cli_check_prints_beta_only_where_the_potential_has_one(tmp_path, capsys):
    # beta = 3K^2 - 1 bounds the curvature of the truncated potential; the
    # template's double-well backward_euler run has no such bound.
    assert not any(l.startswith("beta:") for l in _check_lines(tmp_path, capsys, template_config()))
    base = BASE.format(out=tmp_path / "out")
    ssi1 = base.replace("backward_euler", "ssi1") + "model.potential.K = 2.0\nscheme.S = 5.5\n"
    truncated = base + "model.potential.type = truncated\nmodel.potential.K = 2.0\n"
    for text in (ssi1, truncated):
        assert "beta: 11.0" in _check_lines(tmp_path, capsys, text)


@pytest.mark.parametrize("assignment", ["grid.L = inf", "model.epsilon = inf",
                                        "model.kernel.cJ = inf", "run.init.mean = inf",
                                        "run.init.mean = nan", "run.init.delta = inf"])
def test_cli_non_finite_float_exits_2(tmp_path, capsys, assignment):
    key = assignment.split(" = ")[0]
    lines = [l for l in BASE.format(out=tmp_path / "out").splitlines()
             if not l.startswith(key + " ")]
    cfg = _write_config(tmp_path, "\n".join(lines + [assignment]) + "\n")
    for command in ("run", "check"):
        assert main([command, str(cfg)]) == 2
        err = capsys.readouterr().err
        assert f"line {len(lines) + 1}: key {key!r} must be finite" in err
        assert "Traceback" not in err


@pytest.mark.parametrize("command, assignment, flags", [
    pytest.param("run", "run.seed = -1", [], id="run-seed"),
    pytest.param("check", "run.seed = -1", [], id="check-seed"),
    pytest.param("run", "", ["--seed", "-5"], id="run-seed-flag"),
    pytest.param("check", "", ["--seed", "-5"], id="check-seed-flag"),
    pytest.param("run", "run.init.delta = 1e308", [], id="run-delta"),
    pytest.param("check", "run.init.delta = 1e308", [], id="check-delta"),
    pytest.param("run", "model.epsilon = 1e200", [], id="run-epsilon"),
    pytest.param("check", "model.epsilon = 1e200", [], id="check-epsilon"),
    pytest.param("run", "run.init.mean = 1e200", [], id="run-mean"),
    pytest.param("check", "run.init.mean = 1e200", [], id="check-mean"),
    pytest.param("run", "", ["--max-steps", "0"], id="run-max-steps-flag"),
    pytest.param("check", "", ["--max-steps", "0"], id="check-max-steps-flag"),
    pytest.param("run", "model.potential.K = 1e300", [], id="run-cutoff"),
    pytest.param("check", "model.potential.K = 1e300", [], id="check-cutoff"),
    pytest.param("run", "model.potential.K = 8.8e76", [], id="run-cutoff-edge"),
    pytest.param("check", "model.potential.K = 8.8e76", [], id="check-cutoff-edge"),
])
def test_cli_out_of_range_value_exits_2(tmp_path, capsys, command, assignment, flags):
    # Finite values that numpy rejected (a negative seed, a sample range that
    # overflows) or that overflow eps^2, F(u) or 3 K^4 ended in a traceback, exit 1.
    key = assignment.split(" = ")[0] or {"--seed": "run.seed", "--max-steps": "run.max_steps"}[flags[0]]
    lines = [l for l in BASE.format(out=tmp_path / "out").splitlines()
             if not (assignment and l.startswith(key + " "))]
    cfg = _write_config(tmp_path, "\n".join(lines + [assignment]) + "\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([command, str(cfg)] + flags) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error") and key in err
    assert "Traceback" not in err


@pytest.mark.parametrize("length", ["1e308", "1e-200"])
def test_cli_out_of_range_grid_length_exits_2(tmp_path, capsys, length):
    # Finite, but L^2 or 1/h^2 overflows: the kernel's sampling would end in
    # an OverflowError or a division by zero.
    cfg = _write_config(tmp_path, BASE.format(out=tmp_path / "out")
                        .replace("grid.L = 1.0", f"grid.L = {length}"))
    for command in ("run", "check"):
        assert main([command, str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and "grid.L" in err
        assert "Traceback" not in err


def _overflowing_scales_exit(tmp_path, capsys, command):
    # L^2, h^2 and 8/h^2 fit, but the kernel's scales (the squared distances
    # to its images, h^2 J) overflow: numpy's overflow warnings and a kernel
    # of mass 2e307 used to pass as an admissible configuration.
    cfg = _write_config(tmp_path, BASE.format(out=tmp_path / "out")
                        .replace("grid.L = 1.0", "grid.L = 1e154"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main([command, str(cfg)])
    captured = capsys.readouterr()
    assert "configuration error: key 'grid.L'" in captured.err and "overflow" in captured.err
    assert "verdict" not in captured.out and not (tmp_path / "out").exists()
    return code


@pytest.mark.parametrize("command", ["check", "run"])
@pytest.mark.parametrize("builder, images, key", [
    ("config.build_kernel", 3, "grid.N"),
    ("config.build_kernel", 1000000000, "model.kernel.images"),
    ("cli.make_cache", 3, "grid.N"),
    ("config.build_initial_field", 3, "grid.N"),
], ids=["kernel", "kernel_images", "cache", "initial_field"])
def test_cli_unallocatable_build_exits_2(tmp_path, capsys, monkeypatch, command, builder, images, key):
    # A grid or an image count too large to allocate is a configuration error
    # naming the key that sized the arrays, with no traceback.  The builder is
    # patched to fail, so nothing large is allocated.
    def unallocatable(*args, **kwargs):
        raise MemoryError("Unable to allocate 7.28 TiB for an array")

    monkeypatch.setattr(f"nchsolver.{builder}", unallocatable)
    cfg = _write_config(tmp_path, BASE.format(out=tmp_path / "out")
                        + f"model.kernel.images = {images}\n")
    assert main([command, str(cfg)]) == 2
    captured = capsys.readouterr()
    assert f"configuration error: key {key!r}" in captured.err and "7.28 TiB" in captured.err
    assert "Traceback" not in captured.err
    assert "verdict" not in captured.out and not (tmp_path / "out").exists()


def test_cli_check_overflowing_scales_exits_2(tmp_path, capsys):
    assert _overflowing_scales_exit(tmp_path, capsys, "check") == 2


def test_cli_run_overflowing_scales_exits_2(tmp_path, capsys):
    assert _overflowing_scales_exit(tmp_path, capsys, "run") == 2


@pytest.mark.parametrize("command", ["check", "run"])
def test_cli_kernel_amplitude_overflow_names_cj(tmp_path, capsys, command):
    # The kernel samples at unit amplitude on this domain: the amplitude
    # overflows, not the domain's scales.
    cfg = _write_config(tmp_path, BASE.format(out=tmp_path / "out")
                        .replace("model.kernel.cJ = 12.5", "model.kernel.cJ = 1e308"))
    assert main([command, str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: key 'model.kernel.cJ'") and "overflow" in err
    assert "grid.L" not in err


@pytest.mark.parametrize("command", ["check", "run"])
def test_cli_tabulated_kernel_overflow_names_path(tmp_path, capsys, command):
    table = tmp_path / "kernel.nchf"
    write_field(table, Field(GridGeometry(8, 1.0), np.full((8, 8), 1e308)))
    text = BASE.format(out=tmp_path / "out").replace("model.kernel.type = gaussian",
                                                     "model.kernel.type = tabulated")
    text = text.replace("model.kernel.cJ = 12.5\n", "").replace("model.kernel.xi = 10.0\n", "")
    cfg = _write_config(tmp_path, text + f"model.kernel.path = {table}\n")
    assert main([command, str(cfg)]) == 2
    assert capsys.readouterr().err.startswith("configuration error: key 'model.kernel.path'")


def test_cli_check_of_an_uneven_tabulated_kernel_exits_2(tmp_path, capsys):
    table = tmp_path / "kernel.nchf"
    write_field(table, Field(GridGeometry(8, 1.0), np.arange(64.0).reshape(8, 8)))
    text = BASE.format(out=tmp_path / "out").replace("model.kernel.type = gaussian",
                                                     "model.kernel.type = tabulated")
    text = text.replace("model.kernel.cJ = 12.5\n", "").replace("model.kernel.xi = 10.0\n", "")
    cfg = _write_config(tmp_path, text + f"model.kernel.path = {table}\n")
    assert main(["check", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("configuration error: key 'model.kernel.path': "
                                   "tabulated kernel is not even")


@pytest.mark.parametrize("command", ["check", "run"])
def test_cli_ssi1_without_stabilization_exits_2(tmp_path, capsys, command):
    # scheme.S is required for ssi1; its default 0.0 must not satisfy the rule.
    text = BASE.format(out=tmp_path / "out").replace("backward_euler", "ssi1") \
        + "model.potential.K = 2.0\n"
    cfg = _write_config(tmp_path, text)
    assert main([command, str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error") and "scheme.S" in err
    assert not (tmp_path / "out").exists()


def test_parse_fills_no_random_init_default_under_a_snapshot(tmp_path):
    values = parse_config(BASE.format(out="o") + f"run.init.snapshot_path = {tmp_path}\n")
    assert not any(name in values for name in ("run.init.mean", "run.init.delta"))
    assert values["run.seed"] == 3 and values["scheme.S"] == 0.0


def test_cli_run_non_finite_diagnostics_exits_3(tmp_path, capsys):
    # eps^2 [J (*) 1] is finite, but the norms of omega overflow from step 0.
    out = tmp_path / "out"
    cfg = _write_config(tmp_path, BASE.format(out=out)
                        .replace("model.epsilon = 1.0", "model.epsilon = 1e120"))
    with np.errstate(all="ignore"):
        assert main(["run", str(cfg), "--max-steps", "3"]) == 3
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    summary = (out / "summary.txt").read_text()
    assert summary.startswith("termination: error\nsteps: 0\n")
    assert "detail: step 0: grad_omega_l2 is not finite (inf)" in summary


def test_cli_check_calls_a_non_finite_step_zero_row_inadmissible(tmp_path, capsys):
    # The admissibility margin is finite, but the run would end at step 0:
    # check evaluates the same row and names its first non-finite column.
    cfg = _write_config(tmp_path, BASE.format(out=tmp_path / "out")
                        .replace("model.epsilon = 1.0", "model.epsilon = 1e120"))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["check", str(cfg)]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    lines = captured.out.splitlines()
    assert float(next(l.split(": ")[1] for l in lines if l.startswith("margin:"))) > 0.0
    assert "note: step 0: grad_omega_l2 is not finite (inf)" in lines
    assert lines[-1] == "verdict: inadmissible"
    assert not (tmp_path / "out").exists()


def test_cli_overflowing_step_zero_chemical_potential_exits_2(tmp_path, capsys):
    # eps^2 [J (*) 1] is finite, but G rfft2(u0) overflows at N = 32: both
    # commands stop before any step with a configuration error, no traceback.
    cfg = _write_config(tmp_path, BASE.format(out=tmp_path / "out")
                        .replace("grid.N = 8", "grid.N = 32")
                        .replace("model.epsilon = 1.0", "model.epsilon = 5e153"))
    for command in ("check", "run"):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main([command, str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            "configuration error: the chemical potential of the initial field is not finite")


def test_cli_run_overflowing_diagnostics_print_no_numpy_warning(tmp_path, capsys):
    # The run silences the overflow it reports itself; no np.errstate here.
    cfg = _write_config(tmp_path, BASE.format(out=tmp_path / "out")
                        .replace("model.epsilon = 1.0", "model.epsilon = 1e120"))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["run", str(cfg), "--max-steps", "3"]) == 3
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("scheme, failed_step", [("ssi1", 1), ("two_li", 2)])
def test_cli_run_unsolvable_linear_step_exits_3(tmp_path, capsys, scheme, failed_step):
    # The modal denominator a + lambda (S + G) turns negative at the high
    # modes: a solver error at the step, with every output written.
    write_field(tmp_path / "kernel.nchf", Field(GridGeometry(8, 1.0), negative_gap_table()))
    out = tmp_path / "out"
    text = (BASE.format(out=out).replace("backward_euler", scheme)
            .replace("scheme.tau = 0.05", "scheme.tau = 1.0")
            .replace("model.kernel.type = gaussian", "model.kernel.type = tabulated")
            .replace("model.kernel.cJ = 12.5\n", "").replace("model.kernel.xi = 10.0\n", ""))
    cfg = _write_config(tmp_path, text + f"model.kernel.path = {tmp_path / 'kernel.nchf'}\n"
                        "model.potential.K = 2.0\nscheme.S = 0.0\n"
                        "scheme.stability_policy = ignore\n")
    assert main(["run", str(cfg)]) == 3
    assert capsys.readouterr().err == ""
    assert sorted(p.name for p in out.iterdir()) == [
        "checkpoint.nchk", "config.resolved", "diagnostics.csv", "summary.txt", "u_final.nchf"]
    summary = (out / "summary.txt").read_text()
    assert summary.startswith(f"termination: error\nsteps: {failed_step - 1}\n")
    assert f"detail: step {failed_step}: non-positive modal denominator" in summary


def test_cli_check_reports_inadmissible_ssi1_under_enforce(tmp_path, capsys):
    # S = 1 < beta/2 = 5.5: check prints the margin and the verdict under
    # every policy, and a run under enforce rejects its first step.
    text = BASE.format(out=tmp_path / "out").replace("backward_euler", "ssi1") \
        + "model.potential.K = 2.0\nscheme.S = 1.0\n"
    outputs = {}
    for policy in ("enforce", "warn"):
        cfg = _write_config(tmp_path, text + f"scheme.stability_policy = {policy}\n",
                            name=f"{policy}.cfg")
        assert main(["check", str(cfg)]) == 1
        outputs[policy] = capsys.readouterr().out
        assert "margin: -4.5\n" in outputs[policy]
        assert outputs[policy].endswith("verdict: inadmissible\n")
    assert outputs["enforce"] == outputs["warn"]
    assert main(["run", str(tmp_path / "enforce.cfg")]) == 3
    assert "step 1: ssi1 inadmissible" in (tmp_path / "out" / "summary.txt").read_text()


def test_cli_check_ssi1_at_boundary(tmp_path, capsys):
    text = BASE.format(out="o").replace("backward_euler", "ssi1") \
        + "model.potential.K = 2.0\nscheme.S = 5.5\n"
    cfg = _write_config(tmp_path, text)
    assert main(["check", str(cfg)]) == 0
    assert "admissible" in capsys.readouterr().out


def test_cli_check_margin_monotone_in_tau(tmp_path, capsys):
    margins = []
    for tau in (0.01, 0.1, 1.0, 10.0):
        text = BASE.format(out="o").replace("scheme.tau = 0.05", f"scheme.tau = {tau}")
        cfg = _write_config(tmp_path, text, name=f"t{tau}.cfg")
        main(["check", str(cfg)])
        out = capsys.readouterr().out
        margins.append(float(next(l.split(": ")[1] for l in out.splitlines()
                                  if l.startswith("margin:"))))
    assert all(a >= b for a, b in zip(margins, margins[1:]))


def test_cli_seed_and_max_steps_flags(tmp_path):
    out = tmp_path / "o1"
    cfg = _write_config(tmp_path, BASE.format(out=out))
    assert main(["run", str(cfg), "--max-steps", "2"]) == 0
    rows = (out / "diagnostics.csv").read_text().strip().splitlines()
    assert rows[-1].split(",")[0] == "2"


def test_cli_determinism_byte_identical_csv(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    cfg = _write_config(tmp_path, BASE.format(out=out_a))
    assert main(["run", str(cfg)]) == 0
    assert main(["run", str(cfg), "--output-dir", str(out_b)]) == 0
    assert (out_a / "diagnostics.csv").read_bytes() == (out_b / "diagnostics.csv").read_bytes()


def test_cli_init_config_template(capsys):
    assert main(["init-config"]) == 0
    text = capsys.readouterr().out
    parse_config(text)
    comment, canonical = text.split("\n", 1)
    assert comment.startswith("#")
    assert canonical == emit_config(parse_config(text))


def test_cli_verify_passes(capsys):
    assert main(["verify"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out
