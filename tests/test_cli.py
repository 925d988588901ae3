"""Config parsing, CLI subcommands, persistence, and determinism."""

import concurrent.futures
import configparser
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sggl
from sggl import StateField, cli, harness, outputs, spde, verify
from sggl.cli import main
from sggl.config import _SCHEMA, ConfigError, parse_config
from sggl.jumps import Control, constant_control
from sggl.outputs import read_fields_bin
from sggl.skeleton import solve_skeleton

SMALL_CONFIG = """\
[physics]
alpha = 0.5
beta = {beta}
gamma = 1.0
sigma = {sigma}
L1 = 3.141592653589793
L2 = 3.141592653589793
lambda1 = 0.1+0j, 0.05+0j
lambda2 = 0.05+0j, -0.02+0j

[spectral]
n1 = 4
n2 = 4
pad_factor = 4

[jumps]
nu = 1.0, 0.5
g = 0.5, -0.3

[control]
phi = 1.5, 0.5; 1.0, 1.5

[time]
T = 0.2
n_steps = 20

[noise]
eps_list = 0.25, 0.125

[initial]
modes = 1, 1, 0.3, 0.0; 2, 2, 0.1, 0.05

[rate]
target_phi = 1.5, 1.0
target_radius = 0.05

[harness]
n_samples = 6

[run]
master_seed = 777
workers = 1
"""


def write_config(tmp_path, name="run.ini", beta=0.5, sigma=3.0, extra=""):
    path = tmp_path / name
    path.write_text(SMALL_CONFIG.format(beta=beta, sigma=sigma) + extra)
    return str(path)


DEFAULT_INI = os.path.join(os.path.dirname(__file__), os.pardir,
                           "configs", "default.ini")


def read_all(out_dir):
    blobs = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            blobs[name] = fh.read()
    return blobs


# ---------------------------------------------------------------------------
# config parsing

def test_parse_valid_config(tmp_path):
    spec = parse_config(write_config(tmp_path))
    assert spec.params.sigma == 3.0
    assert spec.basis.n1 == 4
    assert spec.jm.n_marks == 2
    assert spec.ctrl.phi.shape == (2, 2)
    assert spec.grid.T == 0.2
    assert spec.eps_list == [0.25, 0.125]
    assert spec.master_seed == 777
    assert spec.u0.modes[0, 0] == 0.3
    assert len(spec.config_hash) == 64


def test_parse_semicolon_after_space_separates_rows_and_entries(tmp_path):
    # ';' after a space still separates the rows of phi and the entries of
    # modes; it does not start an inline comment that drops the rest
    text = SMALL_CONFIG.format(beta=0.5, sigma=3.0)
    assert text.count("; ") == 2
    spaced = tmp_path / "spaced.ini"
    spaced.write_text(text.replace("; ", " ; "))
    plain, spec = parse_config(write_config(tmp_path)), parse_config(str(spaced))
    assert spec.ctrl.phi.shape == (2, 2)
    assert np.array_equal(spec.ctrl.phi, plain.ctrl.phi)
    assert spec.u0.modes[1, 1] == 0.1 + 0.05j
    assert np.array_equal(spec.u0.modes, plain.u0.modes)
    twice = tmp_path / "twice.ini"
    twice.write_text(text.replace("2, 2, 0.1", "1, 1, 0.1"))
    with pytest.raises(ConfigError) as info:
        parse_config(str(twice))
    assert "mode (1,1) given twice" in str(info.value)


def test_parse_rejects_beta_out_of_range(tmp_path):
    # 0.9 > sqrt(7)/3 ~ 0.8819: the violated constraint must be cited
    with pytest.raises((ConfigError, Exception)) as exc:
        parse_config(write_config(tmp_path, beta=0.9))
    assert "√(2σ+1)/σ" in str(exc.value)


def test_parse_rejects_sigma_boundary(tmp_path):
    with pytest.raises(Exception) as exc:
        parse_config(write_config(tmp_path, sigma=2.0))
    assert "σ>2" in str(exc.value)


@pytest.mark.parametrize("section, key", [
    ("run", "bogus_key"),
    # keys that were once parsed but never read
    ("harness", "slope_floor"), ("harness", "ldp_band"),
    ("harness", "tail_radius"), ("harness", "audit_level"),
    ("harness", "audit_cases"),
    # keys with a single value in use, now module constants
    ("harness", "blowup_factor"), ("harness", "r2_floor"),
    ("harness", "energy_slack"), ("harness", "c_f"), ("harness", "c_g"),
    ("harness", "p_audit"), ("time", "save_stride"), ("rate", "rho0"),
])
def test_parse_rejects_unknown_key(tmp_path, section, key):
    path = tmp_path / "run.ini"
    text = SMALL_CONFIG.format(beta=0.5, sigma=3.0)
    path.write_text(text.replace(f"[{section}]\n", f"[{section}]\n{key} = 1\n"))
    with pytest.raises(ConfigError, match=f"unknown key '{key}'"):
        parse_config(str(path))
    assert main(["skeleton", "--config", str(path), "--out",
                 str(tmp_path / "o")]) == 2


def test_parse_rejects_unknown_section(tmp_path):
    path = write_config(tmp_path, extra="\n[mystery]\nx = 1\n")
    with pytest.raises(ConfigError):
        parse_config(path)


def test_parse_rejects_default_section_by_name(tmp_path):
    # configparser copies [DEFAULT] keys into every section: name the section
    path = write_config(tmp_path, extra="\n[DEFAULT]\nfoo = 1\n")
    with pytest.raises(ConfigError, match=r"unknown section \[DEFAULT\]"):
        parse_config(path)


def test_parse_rejects_missing_section(tmp_path):
    text = SMALL_CONFIG.format(beta=0.5, sigma=3.0)
    path = tmp_path / "bad.ini"
    path.write_text(text.replace("[time]\nT = 0.2\nn_steps = 20\n", ""))
    with pytest.raises(ConfigError, match=r"missing mandatory section \[time\]"):
        parse_config(str(path))


def test_parse_missing_file(tmp_path):
    with pytest.raises(ConfigError):
        parse_config(str(tmp_path / "nope.ini"))


def test_default_config_sets_every_schema_key():
    cfg = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    cfg.optionxform = str
    cfg.read(DEFAULT_INI, encoding="utf-8")
    assert {s: set(cfg[s]) for s in cfg.sections()} == \
        {s: set(keys) for s, keys in _SCHEMA.items()}


# ---------------------------------------------------------------------------
# subcommands

def test_cli_skeleton_outputs(tmp_path):
    cfg = write_config(tmp_path)
    out = str(tmp_path / "out")
    assert main(["skeleton", "--config", cfg, "--out", out]) == 0
    csv = Path(os.path.join(out, "trajectory.csv")).read_text().splitlines()
    assert csv[0].startswith("# config_sha256=")
    assert "master_seed=777" in csv[0]
    assert csv[1] == "t,l2,grad_l2,l2sigma2"
    assert len(csv) == 2 + 21   # t=0 plus 20 saved steps


def test_cli_trajectory_lp_norm_takes_the_exact_exponent(tmp_path):
    # at sigma = 2.3 trajectory.csv's l2sigma2 is the L^6.6 norm of each
    # saved state, against libm pow of |u| on the grid, not the L^7 norm of
    # 2 sigma + 2 rounded
    cfg = write_config(tmp_path, sigma=2.3)
    out = str(tmp_path / "out")
    assert main(["skeleton", "--config", cfg, "--out", out]) == 0
    rows = Path(os.path.join(out, "trajectory.csv")).read_text().splitlines()[2:]
    _, fields = read_fields_bin(os.path.join(out, "fields.bin"))
    b = parse_config(cfg).basis
    p = 2 * 2.3 + 2
    assert len(rows) == len(fields) == 21
    for row, modes in zip(rows, fields):
        absU = np.abs(b.to_grid(modes)).ravel()
        want = math.pow(b.cell_area * math.fsum(math.pow(a, p) for a in absU), 1 / p)
        assert abs(float(row.split(",")[3]) - want) <= 1e-14 * want


def test_cli_fields_binary_roundtrip(tmp_path):
    cfg = write_config(tmp_path)
    out = str(tmp_path / "out")
    assert main(["skeleton", "--config", cfg, "--out", out]) == 0
    header, fields = read_fields_bin(os.path.join(out, "fields.bin"))
    assert "config_sha256=" in header
    assert fields.shape == (21, 4, 4)
    assert fields.dtype == complex
    assert abs(fields[0, 0, 0] - 0.3) < 1e-15


def test_cli_simulate_and_controlled(tmp_path):
    cfg = write_config(tmp_path)
    for cmd in ("simulate", "controlled"):
        out = str(tmp_path / f"out_{cmd}")
        assert main([cmd, "--config", cfg, "--out", out]) == 0
        assert os.path.exists(os.path.join(out, "trajectory.csv"))
        assert os.path.exists(os.path.join(out, "events.csv"))


def test_cli_audit_and_verify(tmp_path):
    cfg = write_config(tmp_path)
    out = str(tmp_path / "out_audit")
    assert main(["audit", "--config", cfg, "--out", out]) == 0
    doc = json.loads(Path(os.path.join(out, "audit.json")).read_text())
    assert doc["energy_ok"] and doc["grad_ok"]
    out2 = str(tmp_path / "out_verify")
    assert main(["verify", "--config", cfg, "--out", out2]) == 0
    doc2 = json.loads(Path(os.path.join(out2, "verify.json")).read_text())
    assert doc2["ok"] and doc2["failures"] == []


def test_cli_audit_violation_exits_1(tmp_path, monkeypatch):
    # with a zero prefactor both bounds are 0, below any nonzero trajectory
    monkeypatch.setattr(harness, "_GRONWALL_PREFACTOR", 0.0)
    out = str(tmp_path / "o")
    assert main(["audit", "--config", write_config(tmp_path), "--out", out]) == 1
    doc = json.loads(Path(os.path.join(out, "audit.json")).read_text())
    assert not doc["energy_ok"] and not doc["grad_ok"]
    l2, h1 = doc["violations"]
    assert l2.startswith("L2 energy ") and l2.endswith(" exceeds bound 0")
    assert h1.startswith("H1 energy ") and h1.endswith(" exceeds bound 0")


def test_cli_verify_failure_exits_1(tmp_path, monkeypatch, capsys):
    real = verify.apply_A

    def doubled(u, params):
        # wrong by a factor 2 on every mode, still 0 on the zero field
        return StateField(2.0 * real(u, params).modes, u.basis)

    monkeypatch.setattr(verify, "apply_A", doubled)
    out = str(tmp_path / "o")
    assert main(["verify", "--config", write_config(tmp_path), "--out", out]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["FAIL eigen_exactness: worst rel err 1"]
    doc = json.loads(Path(os.path.join(out, "verify.json")).read_text())
    assert doc["ok"] is False
    assert doc["failures"] == ["eigen_exactness: worst rel err 1"]


def read_error(out_dir):
    with open(os.path.join(out_dir, "error.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_cli_usage_errors(tmp_path):
    cfg_bad = write_config(tmp_path, name="bad.ini", beta=0.9)
    out = str(tmp_path / "o")
    assert main(["skeleton", "--config", cfg_bad, "--out", out]) == 2
    assert read_error(out)["error"] == "ConfigError"
    os.remove(os.path.join(out, "error.json"))
    assert main(["skeleton", "--config", str(tmp_path / "missing.ini"),
                 "--out", out]) == 2
    assert read_error(out)["error"] == "ConfigError"
    assert main(["not-a-command", "--config", cfg_bad, "--out", out]) == 2
    # a config error found inside a command is a usage error too
    text = SMALL_CONFIG.format(beta=0.5, sigma=3.0)
    cfg_no_target = tmp_path / "no_target.ini"
    cfg_no_target.write_text(text.replace("target_phi = 1.5, 1.0\n", ""))
    for cmd in ("rate", "tail"):
        out_cmd = str(tmp_path / cmd)
        assert main([cmd, "--config", str(cfg_no_target), "--out", out_cmd]) == 2
        doc = read_error(out_cmd)
        assert doc["error"] == "ConfigError" and "target_phi" in doc["message"]


@pytest.mark.parametrize("line, bad, why", [
    # values that do not parse: the message says what the key takes
    ("n_samples = 6", "n_samples = many", "must be an integer >= 1"),
    ("eps_list = 0.25, 0.125", "eps_list = 0.1, x", "must be a number"),
    ("master_seed = 777", "master_seed = abc", "must be an integer >= 0"),
    ("modes = 1, 1, 0.3, 0.0; 2, 2, 0.1, 0.05", "modes = 1, 1, x, 0.0",
     "must be a number"),
    ("target_phi = 1.5, 1.0", "target_phi = 1.5, y", "must be a number"),
    ("target_radius = 0.05", "target_radius = 0.05\nfd_step = ten",
     "must be a number"),
    ("lambda1 = 0.1+0j, 0.05+0j", "lambda1 = 0.1+0j, zz",
     "must be two finite complex numbers"),
    # values out of range or empty
    ("eps_list = 0.25, 0.125", "eps_list = ", "needs at least one entry"),
    ("target_radius = 0.05", "target_radius = 0.05\nn_bins = 0",
     "must be an integer >= 1"),
    ("target_phi = 1.5, 1.0", "target_phi = ", "0 columns"),
    ("target_phi = 1.5, 1.0", "target_phi = 1.5, 1.0; 2.0",
     "rows must have the same number of entries"),
    ("phi = 1.5, 0.5; 1.0, 1.5", "phi = 1.5, 0.5; 1.0",
     "rows must have the same number of entries"),
    ("n_samples = 6", "n_samples = 0", "must be an integer >= 1"),
    ("target_radius = 0.05", "target_radius = -1", "must be >= 0"),
    ("target_radius = 0.05", "target_radius = 0.05\nfd_step = 0", "must be > 0"),
    ("master_seed = 777", "master_seed = -1", "must be an integer >= 0"),
    ("target_radius = 0.05", "target_radius = 0.05\ngap_tol = nan",
     "must be finite"),
    # configparser copies [DEFAULT] keys into every section
    ("workers = 1", "workers = 1\n\n[DEFAULT]\nfoo = 1", "unknown section"),
    # entries of the wrong length, a mode off the basis, a line without '='
    ("lambda1 = 0.1+0j, 0.05+0j", "lambda1 = 0.1+0j, 0.05+0j, 0j",
     "must be two finite complex numbers"),
    ("modes = 1, 1, 0.3, 0.0; 2, 2, 0.1, 0.05", "modes = 1, 1, 0.3",
     "entries must be 'k, m, re, im'"),
    ("modes = 1, 1, 0.3, 0.0; 2, 2, 0.1, 0.05", "modes = 1, 1, 0.3, 0.0; 5, 2, 0.1, 0.05",
     "outside basis"),
    ("workers = 1", "workers = 1\nworkers", "malformed config"),
    ("alpha = 0.5", "", "missing mandatory key 'alpha'"),
    # ';' starts no inline comment, so the text after it is part of the value
    ("n_samples = 6", "n_samples = 6 ; six", "must be an integer >= 1"),
    ("modes = 1, 1, 0.3, 0.0; 2, 2, 0.1, 0.05", "modes = 1, 1, 0.3, 0.0; 1, 1, 0.1, 0.05",
     "given twice"),
], ids=["n_samples", "eps_list", "master_seed", "modes", "target_phi", "fd_step",
        "lambda1", "eps_list_empty", "n_bins_zero", "target_phi_empty",
        "target_phi_ragged", "phi_ragged", "n_samples_zero",
        "target_radius_negative", "fd_step_zero", "master_seed_negative",
        "gap_tol_nan", "default_section", "lambda1_three", "modes_three_fields",
        "mode_outside_basis", "malformed", "alpha_missing", "n_samples_semicolon",
        "mode_twice"])
def test_cli_bad_config_value_is_usage_error(tmp_path, capsys, line, bad, why):
    text = SMALL_CONFIG.format(beta=0.5, sigma=3.0)
    assert f"\n{line}\n" in text
    path = tmp_path / "run.ini"
    path.write_text(text.replace(f"\n{line}\n", f"\n{bad}\n"))
    with pytest.raises(ConfigError, match=why):
        parse_config(str(path))
    out = str(tmp_path / "o")
    assert main(["skeleton", "--config", str(path), "--out", out]) == 2
    assert "Traceback" not in capsys.readouterr().err
    doc = read_error(out)
    assert doc["error"] == "ConfigError" and why in doc["message"]


def test_pool_mapper_clamps_workers_to_usable_cpus(monkeypatch):
    # a fake executor: records its size and starts no process
    sizes = []

    class FakeExecutor:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, args):
            return map(fn, args)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakeExecutor)
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0, 1, 2})
    with cli._pool_mapper(64) as mapper:
        assert list(mapper(abs, [-1, 2])) == [1, 2]
    with cli._pool_mapper(2) as mapper:
        assert mapper is not None
    assert sizes == [3, 2]
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0})
    with cli._pool_mapper(8) as mapper:
        assert mapper is None
    assert sizes == [3, 2]


def test_cli_unwritable_output_is_an_error(tmp_path, capsys):
    # an --out that cannot be made, or a report that cannot be written,
    # exits 1 with a one-line error instead of a traceback
    cfg = write_config(tmp_path)
    afile = tmp_path / "afile"
    afile.write_text("")
    assert main(["skeleton", "--config", cfg, "--out", str(afile / "sub")]) == 1
    out = tmp_path / "o"
    (out / "trajectory.csv").mkdir(parents=True)
    assert main(["skeleton", "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and all(line.startswith("error: ") for line in err)
    assert read_error(str(out))["error"] == "IsADirectoryError"


def test_write_json_failure_leaves_no_temporary_file(tmp_path):
    # the move onto a directory fails; its temporary file must not stay
    target = tmp_path / "x.json"
    target.mkdir()
    with pytest.raises(IsADirectoryError):
        outputs.write_json(str(target), {"a": 1}, None, None)
    assert sorted(os.listdir(tmp_path)) == ["x.json"]
    # nor may that of a write that fails once the file is open
    with pytest.raises(TypeError):
        outputs.write_json(str(tmp_path / "y.json"), {"a": object()}, None, None)
    assert sorted(os.listdir(tmp_path)) == ["x.json"]


def test_import_cli_loads_neither_pool_nor_invariant_suite():
    # a fresh interpreter: this test process may have imported them already
    src = str(Path(sggl.__file__).resolve().parents[1])
    code = ("import sys, sggl.cli; print(' '.join(m for m in ('concurrent.futures', "
            "'multiprocessing', 'sggl.verify') if m in sys.modules))")
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout.split() == []


def test_cli_resume_only_on_sweep(tmp_path):
    cfg = write_config(tmp_path)
    for cmd in ("skeleton", "simulate", "controlled", "rate", "tail", "audit",
                "verify"):
        assert main([cmd, "--config", cfg, "--out", str(tmp_path / "o"),
                     "--resume"]) == 2, cmd


def test_default_config_rate_ball_excludes_noiseless_endpoint():
    # a rate ball holding the phi = 1 endpoint has rate 0 and makes `tail` fail
    spec = parse_config(DEFAULT_INI)
    center = solve_skeleton(spec.params, spec.basis, spec.u0, spec.jm,
                            Control(T=spec.grid.T, phi=spec.target_phi),
                            spec.grid, with_norms=False).endpoint
    noiseless = solve_skeleton(spec.params, spec.basis, spec.u0, spec.jm,
                               constant_control(spec.grid.T, spec.jm.n_marks, 1.0),
                               spec.grid, with_norms=False).endpoint
    gap = np.sqrt(np.sum(np.abs(noiseless.modes - center.modes) ** 2))
    assert gap > spec.target_radius


def test_cli_negative_seed_is_usage_error(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = str(tmp_path / "o")
    assert main(["simulate", "--config", cfg, "--out", out, "--seed", "-1"]) == 2
    err = capsys.readouterr().err
    assert "--seed" in err and "Traceback" not in err
    assert "--seed" in read_error(out)["message"]


def test_cli_blowup_is_reported(tmp_path, capsys):
    # a large initial mode blows past the cap within the first step
    text = SMALL_CONFIG.format(beta=0.5, sigma=3.0)
    path = tmp_path / "run.ini"
    path.write_text(text.replace("modes = 1, 1, 0.3, 0.0; 2, 2, 0.1, 0.05",
                                 "modes = 1, 1, 5.0, 0.0")
                        .replace("n_steps = 20", "n_steps = 4"))
    out = str(tmp_path / "o")
    assert main(["skeleton", "--config", str(path), "--out", out]) == 1
    assert "Traceback" not in capsys.readouterr().err
    doc = read_error(out)
    assert doc["error"] == "BlowUpError" and "step 1" in doc["message"]


def run_warnings_as_errors(cmd, path, out):
    # the entry point in a fresh interpreter under -W error, where a
    # RuntimeWarning would end the run in a traceback
    src = str(Path(sggl.__file__).resolve().parents[1])
    return subprocess.run([sys.executable, "-W", "error", "-m", "sggl.cli",
                           cmd, "--config", str(path), "--out", out],
                          env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True)


@pytest.mark.parametrize("eps, count", [
    ("1e-310", "inf"),          # nu_j / eps overflows
    ("1e-300", "2e+299"),
    ("1e-09", "2e+08"),         # a draw of about 2 GB
], ids=["overflow", "tiny", "over_limit"])
def test_cli_overflowing_intensity_is_an_error(tmp_path, eps, count):
    # mark 0 expects nu_0 T / eps events, past the limit of 1e8: the sampler
    # names the mark, eps and the count before it draws anything, without
    # a traceback or a warning
    path = tmp_path / "run.ini"
    path.write_text(SMALL_CONFIG.format(beta=0.5, sigma=3.0).replace(
        "eps_list = 0.25, 0.125", f"eps_list = {eps}"))
    out = str(tmp_path / "o")
    done = run_warnings_as_errors("simulate", path, out)
    message = (f"mark 0 expects M*nu_j*T/eps = {count} events at eps = {eps}, "
               "above the limit 1e+08")
    assert done.returncode == 1
    assert done.stderr == f"error: {message}\n"
    doc = read_error(out)
    assert doc["error"] == "ValueError" and doc["message"] == message


@pytest.mark.parametrize("key, value", [
    ("L1", "1e300"), ("L2", "1e300"), ("L1", "1e155"),      # L^2 overflows
    ("L1", "1e-300"), ("L2", "1e-300"),                     # L^2 is 0
    ("L1", "1e-155"),                                       # k^2/L^2 overflows
])
def test_cli_domain_out_of_float_range_is_a_config_error(tmp_path, key, value):
    # a domain length whose eigenvalues pi^2 k^2/L^2 leave float range is a
    # config error that names the key, without a traceback or a warning
    path = tmp_path / "run.ini"
    path.write_text(SMALL_CONFIG.format(beta=0.5, sigma=3.0).replace(
        f"{key} = 3.141592653589793", f"{key} = {value}"))
    out = str(tmp_path / "o")
    done = run_warnings_as_errors("skeleton", path, out)
    message = (f"invalid [physics]: {key} = {float(value)!r} puts the "
               f"Laplacian's eigenvalues pi^2 k^2/{key}^2, k <= 4, outside "
               "float range")
    assert done.returncode == 2
    assert done.stderr == f"config error: {message}\n"
    doc = read_error(out)
    assert doc["error"] == "ConfigError" and doc["message"] == message


@pytest.mark.parametrize("case", ["sigma-2000", "sigma-20000", "zero-gamma-1000"])
def test_cli_audit_beyond_float_range_without_warning(tmp_path, case):
    # default.ini at an admissible large sigma (|beta| < sqrt(2 sigma + 1) /
    # sigma = 0.0316 at sigma = 2000): the H1 bound's exp((p gamma + c_g) T)
    # leaves float range, so it is +inf, written null, and passes.  At
    # sigma = 20000 the H1 total ||grad u||^p leaves it too, and a total
    # that is not finite is a violation, never a pass.  With u0 = 0 and
    # gamma = 1000 the L2 bound is 0, not 0 * inf = nan
    text = Path(DEFAULT_INI).read_text()
    if case.startswith("sigma"):
        text = text.replace("sigma = 3.0", f"sigma = {case[6:]}").replace(
            "beta = 0.5", "beta = 0.001")
    else:
        text = text.replace("gamma = 1.0", "gamma = 1000").replace(
            "modes = 1, 1, 0.5, 0.0; 2, 2, 0.25, 0.1", "")
    path = tmp_path / "run.ini"
    path.write_text(text)
    out = str(tmp_path / "o")
    done = run_warnings_as_errors("audit", path, out)
    assert done.stderr == ""
    doc = json.loads(Path(out, "audit.json").read_text())
    assert doc["energy_ok"] and doc["grad_bound"] is None
    if case == "sigma-20000":
        assert done.returncode == 1
        assert not doc["grad_ok"] and doc["grad_total"] is None
        assert doc["violations"] == ["H1 energy inf is not finite"]
    else:
        assert done.returncode == 0
        assert doc["grad_ok"] and doc["violations"] == []
    if case == "zero-gamma-1000":
        assert doc["energy_total"] == doc["energy_bound"] == 0.0


def test_cli_tiny_domain_blows_up_without_warning(tmp_path):
    # L1 = 1e-12 makes |hL| about 1e23: the phi series overflows on those
    # entries before the direct form replaces them, which must not warn
    path = tmp_path / "run.ini"
    path.write_text(SMALL_CONFIG.format(beta=0.5, sigma=3.0).replace(
        "L1 = 3.141592653589793", "L1 = 1e-12"))
    out = str(tmp_path / "o")
    done = run_warnings_as_errors("skeleton", path, out)
    assert done.returncode == 1
    assert done.stderr.startswith("error: blow-up detected at step 1")
    assert done.stderr.count("\n") == 1
    assert read_error(out)["error"] == "BlowUpError"


@pytest.mark.parametrize("cmd, gamma", [
    pytest.param(cmd, gamma, id=cmd if gamma == "1e6" else f"{cmd}-{gamma}")
    for gamma, cmds in [("1e6", ["skeleton", "simulate"]),
                        ("3e4", ["skeleton", "simulate", "rate", "sweep"]),
                        ("1e5", ["skeleton", "simulate", "rate", "sweep"])]
    for cmd in cmds])
def test_cli_huge_gamma_blows_up_without_warning(tmp_path, cmd, gamma):
    # at h = 0.005, gamma = 1e6 makes Re(hL) about 5e3: the uniform tables
    # overflow, and the first step, which would use them, is a blow-up
    # instead of inf arithmetic.  gamma = 3e4 and 1e5 make it about 150 and
    # 500: the tables are finite, but the predictor e^(hL) u overflows the
    # nonlinearity's |u|^(2 sigma) u, and the step's state that is not
    # finite blows up with an infinite norm, not a NaN one
    path = tmp_path / "run.ini"
    path.write_text(SMALL_CONFIG.format(beta=0.5, sigma=3.0).replace(
        "gamma = 1.0", f"gamma = {gamma}").replace("n_steps = 20", "n_steps = 40"))
    out = str(tmp_path / "o")
    done = run_warnings_as_errors(cmd, path, out)
    assert done.returncode == 1
    assert done.stderr.startswith("error: blow-up detected at step 1")
    assert done.stderr.count("\n") == 1
    doc = read_error(out)
    assert doc["error"] == "BlowUpError" and "||u||=inf" in doc["message"]


def test_cli_out_of_memory_is_reported(tmp_path, capsys, monkeypatch):
    # numpy raises MemoryError for an allocation it cannot make; the run
    # ends like any module error, without a traceback
    def no_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 43.7 TiB for an array")

    monkeypatch.setattr(spde, "sample_prm", no_memory)
    out = str(tmp_path / "o")
    assert main(["simulate", "--config", write_config(tmp_path), "--out", out]) == 1
    err = capsys.readouterr().err
    assert err == "error: Unable to allocate 43.7 TiB for an array\n"
    doc = read_error(out)
    assert doc["error"] == "MemoryError" and "43.7 TiB" in doc["message"]


def test_cli_seed_override_changes_output(tmp_path):
    cfg = write_config(tmp_path)
    out1, out2 = str(tmp_path / "s1"), str(tmp_path / "s2")
    assert main(["simulate", "--config", cfg, "--out", out1,
                 "--seed", "101"]) == 0
    assert main(["simulate", "--config", cfg, "--out", out2,
                 "--seed", "202"]) == 0
    a = Path(os.path.join(out1, "trajectory.csv")).read_text()
    b = Path(os.path.join(out2, "trajectory.csv")).read_text()
    assert a != b


def test_cli_sweep_byte_identical_rerun(tmp_path):
    cfg = write_config(tmp_path)
    out1, out2 = str(tmp_path / "w1"), str(tmp_path / "w2")
    assert main(["sweep", "--config", cfg, "--out", out1]) == 0
    assert main(["sweep", "--config", cfg, "--out", out2]) == 0
    a, b = read_all(out1), read_all(out2)
    assert a.keys() == b.keys()
    for name in a:
        assert a[name] == b[name], name


def test_cli_sweep_worker_count_invariant(tmp_path):
    cfg = write_config(tmp_path)
    out1, out2 = str(tmp_path / "w1"), str(tmp_path / "w2")
    assert main(["sweep", "--config", cfg, "--out", out1,
                 "--workers", "1"]) == 0
    assert main(["sweep", "--config", cfg, "--out", out2,
                 "--workers", "3"]) == 0
    a = Path(os.path.join(out1, "sweep.csv")).read_bytes()
    b = Path(os.path.join(out2, "sweep.csv")).read_bytes()
    assert a == b


def test_cli_single_eps_sweep_json_is_strict(tmp_path):
    # a one-eps sweep has no slope: slope and r2 are written as null,
    # never as the bare NaN that RFC 8259 JSON does not allow
    text = SMALL_CONFIG.format(beta=0.5, sigma=3.0)
    cfg = tmp_path / "run.ini"
    cfg.write_text(text.replace("eps_list = 0.25, 0.125", "eps_list = 0.25"))
    out = str(tmp_path / "w")
    assert main(["sweep", "--config", str(cfg), "--out", out]) == 0

    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    doc = json.loads(Path(os.path.join(out, "sweep.json")).read_text(),
                     parse_constant=reject)
    assert doc["slope"] is None and doc["r2"] is None
    assert doc["slope_flag"] is True and doc["eps"] == [0.25]


def test_cli_sweep_resume_from_checkpoint(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = str(tmp_path / "w")
    assert main(["sweep", "--config", cfg, "--out", out]) == 0
    full = Path(os.path.join(out, "sweep.csv")).read_bytes()
    ckpt = json.loads(Path(os.path.join(out, "sweep.checkpoint.json")).read_text())
    assert len(ckpt["cells"]) == 2
    report = Path(os.path.join(out, "sweep.json")).read_bytes()
    # drop the reports but keep the checkpoint; resume must rebuild them,
    # counters included
    os.remove(os.path.join(out, "sweep.csv"))
    os.remove(os.path.join(out, "sweep.json"))
    capsys.readouterr()
    assert main(["sweep", "--config", cfg, "--out", out, "--resume"]) == 0
    assert capsys.readouterr().err == ""      # every cell was read back
    assert Path(os.path.join(out, "sweep.csv")).read_bytes() == full
    assert Path(os.path.join(out, "sweep.json")).read_bytes() == report


def test_cli_sweep_never_resumes_from_another_seed(tmp_path):
    # a checkpoint holds the cells of its own seed: resuming with another
    # seed recomputes every cell
    cfg = write_config(tmp_path)
    fresh, out = str(tmp_path / "fresh"), str(tmp_path / "w")
    assert main(["sweep", "--config", cfg, "--out", fresh, "--seed", "2"]) == 0
    assert main(["sweep", "--config", cfg, "--out", out, "--seed", "1"]) == 0
    assert main(["sweep", "--config", cfg, "--out", out, "--resume",
                 "--seed", "2"]) == 0
    assert Path(out, "sweep.csv").read_bytes() == \
        Path(fresh, "sweep.csv").read_bytes()


def test_cli_sweep_ignores_checkpoint_without_counters(tmp_path, capsys):
    # a checkpoint written before the cells carried their counters, or
    # before they carried kicks, is unreadable: the sweep warns, recomputes
    # every cell and rewrites it
    cfg = write_config(tmp_path)
    out = str(tmp_path / "w")
    assert main(["sweep", "--config", cfg, "--out", out]) == 0
    full = Path(os.path.join(out, "sweep.csv")).read_bytes()
    ckpt = os.path.join(out, "sweep.checkpoint.json")
    blob = Path(ckpt).read_bytes()
    for missing in (("substeps", "table_hits", "kicks"), ("kicks",)):
        doc = json.loads(blob)
        for cell in doc["cells"]:
            for key in missing:
                del cell[key]
        Path(ckpt).write_text(json.dumps(doc))
        os.remove(os.path.join(out, "sweep.csv"))
        capsys.readouterr()
        assert main(["sweep", "--config", cfg, "--out", out, "--resume"]) == 0
        assert "unreadable checkpoint" in capsys.readouterr().err
        assert Path(os.path.join(out, "sweep.csv")).read_bytes() == full
        assert Path(ckpt).read_bytes() == blob


@pytest.mark.parametrize("field, value", [
    ("mean_sup_sq", None), ("mean_sup_sq", "0.1"), ("kicks", True),
    ("n_samples", 5),
], ids=["null", "string", "bool", "n_samples"])
def test_cli_sweep_recomputes_damaged_checkpoint_cell(tmp_path, capsys, field,
                                                      value):
    # a cell under a valid header that holds a field off its declared type,
    # or another n_samples than the run's, is unreadable: the sweep warns,
    # recomputes and writes the fresh run's bytes
    cfg = write_config(tmp_path)
    out = str(tmp_path / "w")
    assert main(["sweep", "--config", cfg, "--out", out]) == 0
    fresh = read_all(out)
    ckpt = Path(out, "sweep.checkpoint.json")
    doc = json.loads(ckpt.read_text())
    doc["cells"][1][field] = value
    ckpt.write_text(json.dumps(doc))
    os.remove(os.path.join(out, "sweep.csv"))
    capsys.readouterr()
    assert main(["sweep", "--config", cfg, "--out", out, "--resume"]) == 0
    assert "unreadable checkpoint" in capsys.readouterr().err
    assert read_all(out) == fresh


def test_cli_sweep_report_counts(tmp_path):
    # 64 paths overfill a chunk of the kernel (40 rows), so each cell marches
    # alone, in batches of harness.BATCH paths; each path takes a sub-step
    # per grid step (n_steps = 20 on a 2-bin control) and one per kick, and
    # the report's totals are the sums of the cells' columns
    text = SMALL_CONFIG.format(beta=0.5, sigma=3.0)
    cfg = tmp_path / "run.ini"
    cfg.write_text(text.replace("n_samples = 6", "n_samples = 70"))
    out = str(tmp_path / "w")
    assert main(["sweep", "--config", str(cfg), "--out", out]) == 0
    doc = json.loads(Path(os.path.join(out, "sweep.json")).read_text())
    lines = Path(os.path.join(out, "sweep.csv")).read_text().splitlines()
    header = lines[1].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[2:]]
    assert len(rows) == 2
    substeps = [int(r["substeps"]) for r in rows]
    hits = [int(r["table_hits"]) for r in rows]
    kicks = [int(r["kicks"]) for r in rows]
    assert doc["marches"] == 2 * -(-70 // harness.BATCH) == 4
    assert doc["substeps"] == sum(substeps)
    assert doc["table_hits"] == sum(hits)
    assert doc["kicks"] == sum(kicks)
    assert all(n == 70 * 20 + k for n, k in zip(substeps, kicks))
    assert all(k > 0 for k in kicks)
    assert all(0 <= h <= n for h, n in zip(hits, substeps))


def test_cli_rate_report(tmp_path):
    # SMALL_CONFIG's ball (radius 0.05) holds the noiseless endpoint (gap
    # 0.0127 at phi = 1), where the rate is 0 without any search; a radius
    # of 0.005 excludes it, so the penalty search runs through the CLI.
    text = SMALL_CONFIG.format(beta=0.5, sigma=3.0)
    cfg = tmp_path / "run.ini"
    cfg.write_text(text.replace("target_radius = 0.05", "target_radius = 0.005"))
    out = str(tmp_path / "r")
    assert main(["rate", "--config", str(cfg), "--out", out]) == 0
    doc = json.loads(Path(os.path.join(out, "rate.json")).read_text())
    assert doc["target_radius"] == 0.005
    assert doc["value"] > 0
    assert doc["feasible"] in (True, False)
    if doc["feasible"]:
        assert doc["endpoint_gap"] <= doc["target_radius"] + 1e-4   # default gap_tol
    assert "config_sha256" in doc["header"]


def test_cli_tail_report_counts(tmp_path):
    # a tail batch marches its paths at every eps together: one march per
    # batch of harness.BATCH paths, each path taking a sub-step per grid
    # step and one per kick, per eps
    text = SMALL_CONFIG.format(beta=0.5, sigma=3.0)
    cfg = tmp_path / "run.ini"
    cfg.write_text(text.replace("target_radius = 0.05", "target_radius = 0.005")
                   .replace("n_samples = 6", "n_samples = 130"))
    out = str(tmp_path / "t")
    assert main(["tail", "--config", str(cfg), "--out", out]) == 0
    doc = json.loads(Path(os.path.join(out, "tail.json")).read_text())
    assert doc["marches"] == -(-130 // harness.BATCH) == 3
    assert doc["substeps"] == 130 * 2 * 20 + doc["kicks"]
    assert doc["kicks"] > 0
    assert 0 <= doc["table_hits"] <= doc["substeps"]


def test_cli_every_output_has_header(tmp_path):
    cfg = write_config(tmp_path)
    out = str(tmp_path / "h")
    assert main(["skeleton", "--config", cfg, "--out", out]) == 0
    for name, blob in read_all(out).items():
        first = blob.split(b"\n", 1)[0]
        assert b"config_sha256=" in first, name


def test_cli_every_json_file_is_strict_and_headed(tmp_path):
    # reports, the sweep checkpoint and error.json all open with the same
    # header object and hold no bare NaN or Infinity
    text = SMALL_CONFIG.format(beta=0.5, sigma=3.0).replace(
        "target_radius = 0.05", "target_radius = 0.005")
    cfg = tmp_path / "run.ini"
    cfg.write_text(text)
    header = {"config_sha256": hashlib.sha256(text.encode("utf-8")).hexdigest(),
              "master_seed": 5}

    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    def headers(out):
        names = sorted(n for n in os.listdir(out) if n.endswith(".json"))
        docs = [json.loads(Path(out, n).read_text(encoding="utf-8"),
                           parse_constant=reject) for n in names]
        assert all(next(iter(doc)) == "header" for doc in docs), names
        return {n: doc["header"] for n, doc in zip(names, docs)}

    expected = {"rate": ["rate.json"],
                "sweep": ["sweep.checkpoint.json", "sweep.json"],
                "tail": ["tail.json"], "audit": ["audit.json"],
                "verify": ["verify.json"]}
    for cmd, names in expected.items():
        out = tmp_path / cmd
        assert main([cmd, "--config", str(cfg), "--out", str(out),
                     "--seed", "5"]) == 0
        assert headers(out) == dict.fromkeys(names, header), cmd

    out = tmp_path / "missing"
    assert main(["rate", "--config", str(tmp_path / "missing.ini"),
                 "--out", str(out)]) == 2
    assert headers(out) == {"error.json": {"config_sha256": None,
                                           "master_seed": None}}
    no_target = text.replace("target_phi = 1.5, 1.0\n", "")
    cfg.write_text(no_target)
    out = tmp_path / "no_target"
    assert main(["rate", "--config", str(cfg), "--out", str(out),
                 "--seed", "5"]) == 2
    header["config_sha256"] = hashlib.sha256(no_target.encode("utf-8")).hexdigest()
    assert headers(out) == {"error.json": header}


def test_cli_non_integer_workers_env_is_usage_error(tmp_path, monkeypatch, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "o"
    run = ["skeleton", "--config", cfg, "--out", str(out)]

    def assert_config_error(source):
        err = capsys.readouterr().err
        assert source in err and "Traceback" not in err
        doc = read_error(out)
        assert doc["error"] == "ConfigError" and source in doc["message"]
        assert doc["message"].endswith("must be an integer >= 1")
        shutil.rmtree(out)

    # worker counts below 1 are usage errors too, from the env or the flag
    for env in ("abc", "0", "-3"):
        monkeypatch.setenv("SGGL_WORKERS", env)
        assert main(run) == 2
        assert_config_error("SGGL_WORKERS")
    monkeypatch.delenv("SGGL_WORKERS")
    for flag in ("0", "-3", "abc"):
        assert main(run + ["--workers", flag]) == 2
        assert_config_error("--workers")
    # the flag wins over the environment, which is then not read
    monkeypatch.setenv("SGGL_WORKERS", "abc")
    assert main(run + ["--workers", "1"]) == 0
    monkeypatch.setenv("SGGL_WORKERS", "1")
    assert main(run) == 0


def test_cli_sweep_resume_from_truncated_checkpoint(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = str(tmp_path / "w")
    assert main(["sweep", "--config", cfg, "--out", out]) == 0
    full = Path(os.path.join(out, "sweep.csv")).read_bytes()
    ckpt = os.path.join(out, "sweep.checkpoint.json")
    blob = Path(ckpt).read_bytes()
    # a crash in the middle of a non-atomic write leaves truncated JSON
    with open(ckpt, "wb") as fh:
        fh.write(blob[:len(blob) // 2])
    os.remove(os.path.join(out, "sweep.csv"))
    capsys.readouterr()
    assert main(["sweep", "--config", cfg, "--out", out, "--resume"]) == 0
    assert "checkpoint" in capsys.readouterr().err
    assert Path(os.path.join(out, "sweep.csv")).read_bytes() == full
    assert Path(ckpt).read_bytes() == blob
    assert sorted(os.listdir(out)) == ["sweep.checkpoint.json", "sweep.csv",
                                       "sweep.json"]
