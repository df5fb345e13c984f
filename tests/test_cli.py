import subprocess
import sys

import pytest

from relaymatch.cli import main
from relaymatch.config_io import apply_overrides, load_config

CONFIG = """
[topology]
num_cus = 2
num_d2d = 2
[learning]
horizon = 30
[experiment]
policy = ebriq
num_replications = 2
seed = 3
"""


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(CONFIG)
    return path


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "relaymatch 0.1.0" in capsys.readouterr().out


def test_simulate_writes_outputs(config_path, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(config_path), "--out", str(out)]) == 0
    assert (out / "ebriq.csv").exists()
    assert (out / "manifest.txt").exists()
    lines = (out / "ebriq.csv").read_text().splitlines()
    assert lines[0] == "period,mean_throughput,sm_fraction,mean_alpha_ratio,policy"
    assert len(lines) == 31


def test_simulate_flag_overrides(config_path, tmp_path):
    out = tmp_path / "out"
    code = main([
        "simulate", "--config", str(config_path), "--out", str(out),
        "--policy", "noncoop", "--periods", "10", "--replications", "1", "--seed", "9",
    ])
    assert code == 0
    csv = out / "noncoop.csv"
    assert csv.exists()
    assert len(csv.read_text().splitlines()) == 11
    expected = apply_overrides(load_config(config_path), policy="noncoop", seed=9,
                               replications=1, periods=10)
    assert load_config(out / "manifest.txt") == expected


def test_manifest_reruns_to_the_same_csv(config_path, tmp_path):
    first, second = tmp_path / "first", tmp_path / "second"
    assert main(["simulate", "--config", str(config_path), "--out", str(first),
                 "--seed", "8", "--periods", "20"]) == 0
    assert main(["simulate", "--config", str(first / "manifest.txt"),
                 "--out", str(second)]) == 0
    assert (second / "ebriq.csv").read_bytes() == (first / "ebriq.csv").read_bytes()
    assert (second / "manifest.txt").read_bytes() == (first / "manifest.txt").read_bytes()


def test_config_error_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.ini"
    path.write_text("[experiment]\npolicy = telepathy\n")
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert "configuration error" in capsys.readouterr().err


def simulate_in_subprocess(tmp_path, config_text, horizon=5):
    path = tmp_path / "bad.ini"
    path.write_text(config_text + f"[learning]\nhorizon = {horizon}\n")
    return subprocess.run(
        [sys.executable, "-m", "relaymatch.cli", "simulate",
         "--config", str(path), "--out", str(tmp_path / "o")],
        capture_output=True, text=True,
    )


def assert_one_config_error_line(proc, message):
    assert proc.returncode == 2, proc.stderr
    [line] = proc.stderr.splitlines()  # no traceback, no warning
    assert line.startswith("configuration error: ") and message in line


@pytest.mark.parametrize("section, key", [("topology", "cell_radius"), ("system", "p_c")])
def test_non_finite_parameter_is_config_error(tmp_path, section, key):
    proc = simulate_in_subprocess(tmp_path, f"[{section}]\n{key} = inf\n")
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert f"configuration error: {key} (=inf) must be finite" in proc.stderr


@pytest.mark.parametrize("key, value, message", [
    ("n_0", "1e300", "direct_rates must be finite and at least 2.23e-308"),
    ("theta", "0.4", "theta (=0.4) must be < the smallest positive CU score"),
])
def test_instance_breaking_a_precondition_is_config_error(tmp_path, key, value, message):
    proc = simulate_in_subprocess(tmp_path, f"[system]\n{key} = {value}\n")
    assert_one_config_error_line(proc, message)


@pytest.mark.parametrize("section, key, value", [
    ("system", "p_c", "5e-324"),
    ("topology", "path_loss_exponent", "200"),
])
def test_mean_snr_underflowing_to_zero_is_config_error(tmp_path, section, key, value):
    proc = simulate_in_subprocess(tmp_path, f"[{section}]\n{key} = {value}\n")
    assert_one_config_error_line(proc, "mean SNR of every CU->BS link must be > 0, got 0")


@pytest.mark.parametrize("config_text, horizon, size", [
    ("", 10**12, "95.5 TiB"),
    ("[topology]\nnum_cus = 100000\nnum_d2d = 100000\n", 5, "2.11 TiB"),
])
def test_config_too_large_to_run_is_config_error(tmp_path, config_text, horizon, size):
    # Both used to end in numpy's _ArrayMemoryError with exit 1.
    proc = simulate_in_subprocess(tmp_path, config_text, horizon)
    assert_one_config_error_line(proc, f"needs about {size}")
    assert "above the fixed limit of 4 GiB" in proc.stderr


@pytest.mark.parametrize("config_text", [
    "[DEFAULT]\nseed = 5\n",
    "[DEFAULT]\nseed = 5\n[experiment]\npolicy = ebriq\n",
    "[DEFAULT]\nseed = 5\n[learning]\nhorizon = 5\n",
])
def test_default_section_is_an_unknown_section(tmp_path, capsys, config_text):
    path = tmp_path / "run.ini"
    path.write_text(config_text)
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert "configuration error: unknown section [DEFAULT]" in capsys.readouterr().err


def test_missing_config_is_io_error(tmp_path, capsys):
    assert main(["simulate", "--config", str(tmp_path / "nope.ini"),
                 "--out", str(tmp_path / "o")]) == 4
    assert "i/o error" in capsys.readouterr().err


def test_unwritable_out_dir_is_io_error(config_path, tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("x")
    assert main(["simulate", "--config", str(config_path),
                 "--out", str(blocker / "sub")]) == 4


def test_verify_suite_passes(capsys):
    assert main(["verify", "--suite", "nbs"]) == 0
    out = capsys.readouterr().out
    assert "nbs: PASS" in out


def test_entry_point_runs_as_module(config_path, tmp_path):
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "relaymatch.cli", "simulate",
         "--config", str(config_path), "--out", str(out), "--policy", "random"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert (out / "random.csv").exists()
