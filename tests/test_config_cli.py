import struct

import numpy as np
import pytest

from nchsolver import ConfigError, Field, GridGeometry
from nchsolver.cli import main
from nchsolver.config import (apply_overrides, build_initial_field, build_kernel,
                              build_scheme_config, emit_config, load_config,
                              parse_config, template_config)
from nchsolver.fieldio import write_field

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
    write_field(snap, Field.constant(GridGeometry(8, 1.0), 0.1))
    text = BASE.format(out="o") + f"run.init.snapshot_path = {snap}\nrun.init.delta = 0.1\n"
    with pytest.raises(ConfigError, match="excludes"):
        parse_config(text)


def test_build_initial_field_from_snapshot(tmp_path):
    snap = tmp_path / "u0.nchf"
    u = Field.constant(GridGeometry(8, 1.0), 0.25)
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
    assert np.abs(kernel.values - even).max() <= 1e-15


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


@pytest.mark.parametrize("key", ["run.init.snapshot_path", "model.kernel.path"])
@pytest.mark.parametrize("kind", CORRUPTIONS)
def test_cli_run_corrupt_field_file_exits_2(tmp_path, capsys, kind, key):
    path = tmp_path / "field.nchf"
    write_field(path, Field.constant(GridGeometry(8, 1.0), 0.5))
    path.write_bytes(CORRUPTIONS[kind](path.read_bytes()))
    text = BASE.format(out=tmp_path / "out")
    if key == "model.kernel.path":
        text = text.replace("model.kernel.type = gaussian", "model.kernel.type = tabulated")
        text = text.replace("model.kernel.cJ = 12.5\n", "").replace("model.kernel.xi = 10.0\n", "")
    cfg = _write_config(tmp_path, text + f"{key} = {path}\n")
    assert main(["run", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and key in err
    assert "Traceback" not in err


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


def test_cli_check_reports_admissible_bootstrap(tmp_path, capsys):
    text = BASE.format(out=tmp_path / "out").replace("backward_euler", "two_li") \
        .replace("cJ = 12.5", "cJ = 130.0").replace("tau = 0.05", "tau = 0.001") \
        + "model.potential.K = 2.0\n"
    cfg = _write_config(tmp_path, text)
    assert main(["check", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "bootstrap: ssi1 admissible" in out and out.endswith("verdict: admissible\n")
    assert main(["run", str(cfg)]) == 0


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


def test_cli_verify_passes(capsys):
    assert main(["verify"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out
