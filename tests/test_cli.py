import os
import subprocess
import sys
from pathlib import Path

import pytest

from proxsplit import cli
from proxsplit.cli import ConfigError


BASE_CONFIG = """\
# small scene for fast runs
scene.n = 8
scene.n_views = 6
scene.n_rays = 12
scene.noise_var_b = 0.01
scene.noise_var_prior = 0.01
scene.seed = 7

run.solvers = dfb
run.eps = 1e-3
run.max_outer = 500
"""


def write_config(tmp_path, text=BASE_CONFIG, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


def with_line(line, text=BASE_CONFIG):
    """``text`` with ``line`` in place of the line that sets the same key,
    or appended when none does, since a config sets each key once."""
    key = line.partition("=")[0].strip()
    kept = [other for other in text.splitlines()
            if other.partition("=")[0].strip() != key]
    return "\n".join(kept + [line]) + "\n"


# ------------------------------------------------------------ parse_config


def test_parse_config_key_values_and_comments(tmp_path):
    path = write_config(tmp_path, "a.b = 1  # trailing comment\n\nc = two\n")
    assert cli.parse_config(path) == {"a.b": "1", "c": "two"}


def test_parse_config_reports_line_numbers(tmp_path):
    path = write_config(tmp_path, "scene.n = 8\nnot a pair\n")
    with pytest.raises(ConfigError, match=":2"):
        cli.parse_config(path)
    # a key set twice names both lines, where the last value would win
    path = write_config(tmp_path, "run.eps = 1e-3\n\nrun.eps = 1e-9\n")
    with pytest.raises(ConfigError, match=":3: key run.eps .* line 1$"):
        cli.parse_config(path)


def test_parse_config_rejects_empty_value(tmp_path):
    path = write_config(tmp_path, "scene.n =\n")
    with pytest.raises(ConfigError):
        cli.parse_config(path)


# ------------------------------------------------------------ build_runspec


def test_build_runspec_defaults():
    scene, configs, out_dir = cli.build_runspec({})
    assert scene.n == 64 and scene.n_views == 20 and scene.n_rays == 95
    assert [c.algorithm for c in configs] == ["dfb", "pdfb", "admm"]
    assert all(c.eps == 1e-6 for c in configs)
    assert str(out_dir) == "."


def test_build_runspec_seed_override():
    scene, _, _ = cli.build_runspec({"scene.seed": "5"}, seed_override=99)
    assert scene.seed == 99


def test_build_runspec_eps_list_expands_configs():
    _, configs, _ = cli.build_runspec(
        {"run.solvers": "dfb,admm", "run.eps": "1e-6,1e-8"})
    assert len(configs) == 4
    assert {(c.algorithm, c.eps) for c in configs} == {
        ("dfb", 1e-6), ("dfb", 1e-8), ("admm", 1e-6), ("admm", 1e-8)}


def test_build_runspec_rejects_unknown_algorithm():
    with pytest.raises(ConfigError, match="dfb"):
        cli.build_runspec({"run.solvers": "simplex"})


def test_build_runspec_per_algorithm_overrides():
    _, configs, _ = cli.build_runspec(
        {"run.solvers": "admm,dfb", "admm.rho": "5.0", "dfb.lambda": "0.1"})
    assert configs[0].rho == 5.0 and configs[0].lam is None
    assert configs[1].rho == 1.0 and configs[1].lam == 0.1


def test_inner_iters_reach_solver_config_and_change_the_run(tmp_path):
    keys = {"run.solvers": "dfb,pdfb", "dfb.inner_iters": "3",
            "pdfb.inner_iters": "3"}
    _, configs, _ = cli.build_runspec(keys)
    assert [(c.algorithm, c.inner_iters) for c in configs] == [
        ("dfb", 3), ("pdfb", 3)]
    base = BASE_CONFIG.replace("run.solvers = dfb", "run.solvers = dfb,pdfb")
    traces = {}
    for inner in (1, 3):
        cfg = write_config(tmp_path, base + f"dfb.inner_iters = {inner}\n"
                           f"pdfb.inner_iters = {inner}\n", f"{inner}.cfg")
        out = tmp_path / str(inner)
        assert cli.main(["run", str(cfg), "--out", str(out)]) == cli.EXIT_OK
        traces[inner] = [(out / f"trace_{algo}_eps0.001.csv").read_bytes()
                         for algo in ("dfb", "pdfb")]
    for one, three in zip(traces[1], traces[3]):
        assert one != three


def test_build_runspec_rejects_unknown_keys():
    # misspelt, renamed, removed, or read by no solver
    for key in ("dfb.lamda", "scene.nn", "admm.rho1", "run.seed",
                "admm.lambda", "pdfb.mode", "dfb.mode"):
        with pytest.raises(ConfigError, match=key):
            cli.build_runspec({key: "1"})


def test_a_dfb_run_refuses_the_keys_it_does_not_read(tmp_path, capsys):
    # another algorithm's options and run.out are read by no dfb-only run:
    # each is refused by name, on its own or together, and exits 2
    for key in ("admm.rho", "pdfb.tau", "run.out"):
        with pytest.raises(ConfigError, match=key):
            cli.build_runspec({"run.solvers": "dfb", key: "5"})
    cfg = write_config(tmp_path, BASE_CONFIG + "admm.rho = 5\npdfb.tau = 1\n"
                       "run.out = elsewhere\n")
    out = tmp_path / "out"
    assert cli.main(["run", str(cfg), "--out", str(out)]) == cli.EXIT_USAGE
    assert "admm.rho, pdfb.tau, run.out" in capsys.readouterr().err
    assert not out.exists()
    # the same run reads each of dfb's options
    _, (config,), _ = cli.build_runspec(
        {"run.solvers": "dfb", "dfb.gamma": "0.5", "dfb.lambda": "0.1",
         "dfb.inner_iters": "2"})
    assert (config.gamma, config.lam, config.inner_iters) == (0.5, 0.1, 2)


def test_build_runspec_rejects_bad_eps():
    with pytest.raises(ConfigError, match="run.eps"):
        cli.build_runspec({"run.eps": "1e-6,tight"})


# --------------------------------------------------------------------- run


def test_run_writes_results_trace_and_image(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert cli.main(["run", str(cfg), "--out", str(out)]) == cli.EXIT_OK
    results = (out / "results.csv").read_text().splitlines()
    assert results[0] == ("algorithm,eps,snr_db,nmsd,iterations,"
                          "final_objective,terminated_by")
    assert len(results) == 2
    assert results[1].startswith("dfb,")
    assert (out / "trace_dfb_eps0.001.csv").exists()
    assert (out / "recon_dfb_eps0.001.pgm").exists()
    assert (out / "recon_dfb_eps0.001.pgm.txt").exists()


def test_out_flag_sets_the_directory_and_dot_is_the_default(
        tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path)
    assert cli.main(["run", str(cfg), "--out", "from_flag"]) == cli.EXIT_OK
    assert (tmp_path / "from_flag" / "results.csv").exists()
    assert not (tmp_path / "results.csv").exists()
    assert cli.main(["run", str(cfg)]) == cli.EXIT_OK
    assert (tmp_path / "results.csv").exists()


def test_run_trace_has_one_row_per_iteration(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    cli.main(["run", str(cfg), "--out", str(out)])
    results = (out / "results.csv").read_text().splitlines()[1].split(",")
    iterations = int(results[4])
    trace = (out / "trace_dfb_eps0.001.csv").read_text().splitlines()
    assert trace[0] == "iteration,objective,snr_db,residual"
    assert len(trace) == iterations + 1


def test_run_trace_fields_are_numbers(tmp_path):
    cfg = write_config(tmp_path, BASE_CONFIG.replace(
        "run.solvers = dfb", "run.solvers = dfb,pdfb,admm"))
    out = tmp_path / "out"
    assert cli.main(["run", str(cfg), "--out", str(out)]) == cli.EXIT_OK
    for algo in ("dfb", "pdfb", "admm"):
        rows = (out / f"trace_{algo}_eps0.001.csv").read_text().splitlines()
        assert len(rows) > 1
        for row in rows[1:]:
            fields = row.split(",")
            assert len(fields) == 4
            for field in fields:
                float(field)


def test_run_is_byte_deterministic(tmp_path):
    cfg = write_config(tmp_path)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    cli.main(["run", str(cfg), "--out", str(out1)])
    cli.main(["run", str(cfg), "--out", str(out2)])
    for name in ("results.csv", "trace_dfb_eps0.001.csv",
                 "recon_dfb_eps0.001.pgm"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_run_seed_override_changes_results(tmp_path):
    cfg = write_config(tmp_path)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    cli.main(["run", str(cfg), "--out", str(out1), "--seed", "1"])
    cli.main(["run", str(cfg), "--out", str(out2), "--seed", "2"])
    assert (out1 / "results.csv").read_bytes() \
        != (out2 / "results.csv").read_bytes()


def test_run_missing_config_is_usage_error(tmp_path, capsys):
    # a config that is missing, a directory or not UTF-8, and an --out that
    # names an existing file, each end in one error line, not a traceback
    cfg = write_config(tmp_path)
    latin1 = tmp_path / "latin1.cfg"
    latin1.write_bytes(BASE_CONFIG.encode() + b"# caf\xe9\n")
    taken = tmp_path / "taken"
    taken.write_text("")
    for argv in ([str(tmp_path / "none.cfg")], [str(tmp_path)],
                 [str(latin1)], [str(cfg), "--out", str(taken)]):
        assert cli.main(["run"] + argv) == cli.EXIT_USAGE, argv
        assert capsys.readouterr().err.startswith("error: "), argv


def test_run_unknown_algorithm_is_usage_error(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE_CONFIG.replace(
        "run.solvers = dfb", "run.solvers = simplex"))
    assert cli.main(["run", str(cfg)]) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert "dfb" in err and "pdfb" in err and "admm" in err


def test_run_invalid_scene_is_usage_error(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE_CONFIG + "scene.lambda1 = -0.4\n")
    assert cli.main(["run", str(cfg)]) == cli.EXIT_USAGE
    assert "lambda1" in capsys.readouterr().err


@pytest.mark.parametrize("key", [
    "noise_var_b", "noise_var_prior", "lambda1", "lambda2"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_run_non_finite_scene_value_is_usage_error(tmp_path, capsys, key,
                                                   value):
    cfg = write_config(tmp_path, with_line(f"scene.{key} = {value}"))
    assert cli.main(["run", str(cfg), "--out", str(tmp_path)]) \
        == cli.EXIT_USAGE
    assert key in capsys.readouterr().err
    assert not (tmp_path / "results.csv").exists()


@pytest.mark.parametrize("algo, line", [
    ("dfb", "run.max_outer = 0"), ("dfb", "dfb.lambda = -1"),
    ("pdfb", "pdfb.inner_iters = 0"), ("admm", "admm.rho = 0"),
    ("dfb", "run.eps = inf"), ("pdfb", "pdfb.tau = inf"),
    ("admm", "admm.rho = inf")])
def test_run_bad_solver_value_is_usage_error(tmp_path, capsys, algo, line):
    text = BASE_CONFIG.replace("run.solvers = dfb", f"run.solvers = {algo}")
    cfg = write_config(tmp_path, with_line(line, text))
    assert cli.main(["run", str(cfg), "--out", str(tmp_path)]) \
        == cli.EXIT_USAGE
    assert algo in capsys.readouterr().err
    assert not (tmp_path / "results.csv").exists()


@pytest.mark.parametrize("line", [
    "run.solvers = dfb,dfb", "run.eps = 1e-3,1.0000001e-3"])
def test_run_sharing_output_files_is_usage_error(tmp_path, capsys, line):
    # both runs would write trace_dfb_eps0.001.csv and recon_dfb_eps0.001.pgm
    cfg = write_config(tmp_path, with_line(line))
    assert cli.main(["run", str(cfg), "--out", str(tmp_path)]) \
        == cli.EXIT_USAGE
    assert "dfb_eps0.001" in capsys.readouterr().err
    assert not (tmp_path / "results.csv").exists()


def test_run_solver_failure_exits_nonzero(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE_CONFIG + "dfb.gamma = 1e9\n")
    out = tmp_path / "out"
    assert cli.main(["run", str(cfg), "--out", str(out)]) == cli.EXIT_SOLVER
    assert "dfb" in capsys.readouterr().err
    # the results file is still written, with only the header
    assert len((out / "results.csv").read_text().splitlines()) == 1


def test_no_command_is_usage_error(capsys):
    assert cli.main([]) == cli.EXIT_USAGE
    assert cli.main(["selftest"]) == cli.EXIT_USAGE


def test_python_m_proxsplit_runs_the_cli(tmp_path):
    root = Path(__file__).resolve().parent.parent
    path = [str(root / "src")] + os.environ.get("PYTHONPATH", "").split(
        os.pathsep)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "proxsplit", "run",
         str(write_config(tmp_path)), "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == cli.EXIT_OK, proc.stderr
    assert (out / "results.csv").is_file()
    proc = subprocess.run([sys.executable, "-m", "proxsplit"], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == cli.EXIT_USAGE


# ---------------------------------------------------------------- write_pgm


def test_write_pgm_format_and_sidecar(tmp_path):
    import numpy as np
    path = tmp_path / "img.pgm"
    vec = np.linspace(0.0, 2.0, 16)
    cli.write_pgm(path, vec, 4)
    raw = path.read_bytes()
    assert raw.startswith(b"P5\n4 4\n255\n")
    assert len(raw) == len(b"P5\n4 4\n255\n") + 16
    sidecar = (tmp_path / "img.pgm.txt").read_text()
    assert "min = 0.0" in sidecar and "max = 2.0" in sidecar
