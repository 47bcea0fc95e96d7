import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bartree.bar_model import BarModel, stationary_initial
from bartree import cli, tree_sim
from bartree.cli import main
from bartree.harness import ExperimentConfig, run_clt_experiment
from bartree.smoothing import BandwidthSchedule, bandwidth, density_estimate, gaussian_kernel
from bartree.tree_sim import ReplicateSeed, simulate_generations

ROOT = Path(__file__).resolve().parents[1]
CHILD_ENV = dict(os.environ,
                 PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


# -- check ----------------------------------------------------------------------

def test_check_admissible(capsys):
    code, out = run_cli(capsys, "check", "--a", "0.5", "--gamma", "0.201")
    assert code == 0
    doc = json.loads(out)
    assert doc["assumptions"]["initial_ok"] is True
    assert doc["assumptions"]["k1_min"] == 2
    assert doc["regime"]["admissible"] is True


def test_check_supercritical_rejection(capsys):
    code, out = run_cli(capsys, "check", "--a", "0.9", "--gamma", "0.2")
    assert code == 1
    doc = json.loads(out)
    assert doc["regime"]["supercritical_ok"] is False
    assert abs(doc["regime"]["gamma_lower_bound_supercritical"] - 0.695993813109900) < 1e-5


@pytest.mark.parametrize(
    "a, gamma, admissible",
    [(0.5, 0.15, False), (0.5, 0.201, True), (0.9, 0.201, False), (0.9, 0.696, True)],
)
def test_check_and_clt_agree_on_admissibility(capsys, a, gamma, admissible):
    # both take the bias order from the estimator's kernel
    code, out = run_cli(capsys, "check", "--a", str(a), "--gamma", str(gamma))
    cfg = ExperimentConfig(a=a, sigma=1.0, n=3, gamma=gamma, x=-1.3, n0=4)
    assert run_clt_experiment(cfg).admissibility.admissible is admissible
    assert json.loads(out)["regime"]["admissible"] is admissible
    assert code == (0 if admissible else 1)


def test_check_bad_initial(capsys):
    # rho0 above the stationary spread is not admissible
    code, out = run_cli(
        capsys, "check", "--a", "0.5", "--gamma", "0.201",
        "--m0", "0.0", "--rho0", "5.0",
    )
    assert code == 1
    assert json.loads(out)["assumptions"]["initial_ok"] is False


# -- simulate -------------------------------------------------------------------

def test_simulate_stdout_shape(capsys):
    code, out = run_cli(capsys, "simulate", "--a", "0.5", "--n", "4", "--seed", "9")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "generation,index,state"
    assert len(lines) == 1 + (2**5 - 1)
    g, i, s = lines[1].split(",")
    assert (g, i) == ("0", "0")
    float(s)
    assert lines[-1].split(",")[:2] == ["4", "15"]


def test_simulate_dump_matches_stdout(capsys, tmp_path):
    _, out = run_cli(capsys, "simulate", "--a", "0.7", "--n", "3", "--seed", "2")
    dump = tmp_path / "traj.csv"
    code, msg = run_cli(
        capsys, "simulate", "--a", "0.7", "--n", "3", "--seed", "2", "--dump", str(dump)
    )
    assert code == 0
    assert msg.strip() == f"wrote {dump}"
    assert dump.read_text() == out


def test_simulate_into_a_closed_pipe_exits_quietly():
    # `bartree simulate ... | head`: the reader leaves after one line, and
    # the writer stops with status 1 and no traceback
    with subprocess.Popen(
        [sys.executable, "-m", "bartree.cli", "simulate", "--a", "0.5", "--n", "16"],
        env=CHILD_ENV, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    ) as proc:
        assert proc.stdout.readline() == b"generation,index,state\n"
        proc.stdout.close()
        stderr = proc.stderr.read()
        assert (stderr, proc.wait(timeout=60)) == (b"", 1)


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="counts /proc/self/fd")
def test_a_closed_pipe_leaves_no_descriptor_open(monkeypatch):
    # in process: main points stdout at devnull and keeps no descriptor of its own
    before = len(os.listdir("/proc/self/fd"))
    read, write = os.pipe()
    os.close(read)
    with os.fdopen(write, "w") as out:
        monkeypatch.setattr(sys, "stdout", out)
        assert main(["simulate", "--a", "0.5", "--n", "12"]) == 1
    monkeypatch.undo()
    assert len(os.listdir("/proc/self/fd")) == before


@pytest.mark.parametrize("argv", [
    ["-m", "bartree.cli", "simulate", "--a", "0.5", "--n", "3"],
    ["scripts/exact_zeta_variance.py"],
    ["scripts/clt_sweep.py", "--a", "0.5", "--n", "3", "--n0", "9", "--seeds", "1"],
], ids=["simulate", "exact_zeta_variance", "clt_sweep"])
def test_short_output_into_a_closed_pipe_exits_quietly(argv):
    # no reader from the start; stdout is buffered, so a short output meets it when flushed
    env = {k: v for k, v in CHILD_ENV.items() if k != "PYTHONUNBUFFERED"}
    read, write = os.pipe()
    os.close(read)
    with os.fdopen(write, "wb") as out:
        proc = subprocess.run([sys.executable, *argv], cwd=ROOT, env=env, stdout=out,
                              stderr=subprocess.PIPE, timeout=60)
    assert (proc.stderr, proc.returncode) == (b"", 1)


# -- estimate -------------------------------------------------------------------

def _library_estimate(a, n, gamma, xs, seed, tree=False):
    model = BarModel(a, 1.0)
    initial = stationary_initial(model)
    track = (model.a, model.sigma, initial.m0, initial.rho0)
    gens = simulate_generations(track, n, ReplicateSeed(seed, 0))
    parts = [buf.states for buf in gens if tree or buf.generation == n]
    h = bandwidth(n, BandwidthSchedule(gamma))
    return density_estimate(np.concatenate(parts), np.asarray(xs), h, gaussian_kernel())


def test_estimate_matches_library(capsys):
    code, out = run_cli(
        capsys, "estimate", "--a", "0.5", "--n", "8", "--gamma", "0.201",
        "--x=-1.3,0.0,1.3", "--seed", "4",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "x,mu_hat"
    got = {float(l.split(",")[0]): float(l.split(",")[1]) for l in lines[1:]}
    want = _library_estimate(0.5, 8, 0.201, [-1.3, 0.0, 1.3], 4)
    for xq, w in zip([-1.3, 0.0, 1.3], want):
        assert got[xq] == w  # exact: the CLI is the same code path


def test_estimate_tree_scope_matches_library_across_a_chunk_edge(capsys):
    # at n = 17, T_n has 2^18 - 1 states: the estimator's 2^16-state chunks
    # cross generation edges, and the CLI reads A_n in place of a copy
    xs = [-1.3, 0.0, 1.3]
    code, out = run_cli(capsys, "estimate", "--a", "0.5", "--n", "17", "--gamma", "0.201",
                        "--x=-1.3,0.0,1.3", "--scope", "tree", "--seed", "4")
    assert code == 0
    want = _library_estimate(0.5, 17, 0.201, xs, 4, tree=True)
    assert out.splitlines() == ["x,mu_hat"] + [f"{x!r},{float(w)!r}" for x, w in zip(xs, want)]


def _estimate_peak_mb(scope):
    """Peak RSS (VmHWM, MB) of a fresh process running one estimate at n = 20."""
    code = (
        "import sys\n"
        "from bartree.cli import main\n"
        "main(['estimate', '--a', '0.5', '--n', '20', '--gamma', '0.201',"
        f" '--x=-1.3,0.0,1.3', '--scope', {scope!r}])\n"
        "print(next(line.split()[1] for line in open('/proc/self/status')"
        " if line.startswith('VmHWM:')), file=sys.stderr)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=CHILD_ENV, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return int(proc.stderr) / 1024


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM")
def test_estimate_tree_scope_holds_no_second_tree():
    # the whole-tree scope is the stored tree itself: its peak is the
    # generation scope's, not that plus a copy of 2^21 - 1 states (16 MiB)
    tree, gen = _estimate_peak_mb("tree"), _estimate_peak_mb("gen")
    assert tree <= gen + 2, (tree, gen)


def test_estimate_tree_scope_differs(capsys):
    _, out_gen = run_cli(
        capsys, "estimate", "--a", "0.5", "--n", "6", "--gamma", "0.201", "--x", "0.0"
    )
    _, out_tree = run_cli(
        capsys, "estimate", "--a", "0.5", "--n", "6", "--gamma", "0.201", "--x", "0.0",
        "--scope", "tree",
    )
    v_gen = float(out_gen.splitlines()[1].split(",")[1])
    v_tree = float(out_tree.splitlines()[1].split(",")[1])
    assert v_gen != v_tree
    assert v_tree == pytest.approx(
        float(_library_estimate(0.5, 6, 0.201, [0.0], 0, tree=True)[0])
    )


# -- clt ------------------------------------------------------------------------

def test_clt_flags_run(capsys, tmp_path):
    code, out = run_cli(
        capsys, "clt", "--a", "0.5", "--n", "5", "--gamma", "0.201", "--x=-1.3",
        "--n0", "12", "--out", str(tmp_path), "--histogram", "--ecdf", "--bins", "4",
    )
    assert code == 0
    assert "n0=12" in out and "ks=" in out and "admissible=True" in out
    for name in ("samples.csv", "summary.json", "histogram.csv", "ecdf.csv"):
        assert (tmp_path / name).exists(), name
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["config"]["sigma"] == 1.0  # the CLI default
    assert summary["config"]["n0"] == 12
    csv_lines = (tmp_path / "samples.csv").read_text().splitlines()
    assert len(csv_lines) == 13


def test_clt_config_file_key_value(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# demo experiment\n"
        "a = 0.5\n"
        "sigma = 1.0\n"
        "n = 5\n"
        "gamma = 0.201\n"
        "x = -1.3\n"
        "n0 = 10   # replicates\n"
        "scope = tree\n"
    )
    code, out = run_cli(capsys, "clt", "--config", str(cfg), "--out", str(tmp_path))
    assert code == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["config"]["scope"] == "tree_n"
    assert summary["config"]["n0"] == 10


def test_clt_flags_override_config(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("a=0.5\nn=5\ngamma=0.201\nx=-1.3\nn0=10\n")
    code, _ = run_cli(
        capsys, "clt", "--config", str(cfg), "--n0", "7", "--master-seed", "5",
        "--out", str(tmp_path),
    )
    assert code == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["config"]["n0"] == 7
    assert summary["config"]["master_seed"] == 5


def test_clt_json_config(capsys, tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(
        {"a": 0.5, "n": 4, "gamma": 0.201, "x": -1.3, "n0": 6,
         "initial": {"m0": 0.0, "rho0": 0.5}}
    ))
    code, _ = run_cli(capsys, "clt", "--config", str(cfg), "--out", str(tmp_path))
    assert code == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["config"]["initial"] == {"m0": 0.0, "rho0": 0.5}


@pytest.mark.parametrize("text, initial_flags", [
    ("a = 0.5\nsigma = 1\nn = 5\ngamma = 0.201\nx = 0\nn0 = 6\n", []),
    ('{"a": 0.5, "sigma": 1, "n": 5, "gamma": 0.201, "x": 0, "n0": 6,'
     ' "initial": {"m0": 0, "rho0": 1}}', ["--m0", "0", "--rho0", "1"]),
], ids=["key_value", "json_initial"])
def test_clt_int_for_a_float_writes_the_flags_bytes(capsys, tmp_path, text, initial_flags):
    # an int given for a float field, in a config file or in a JSON initial
    # object, is stored as a float: the run writes what the flags write
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    flags = ["--a", "0.5", "--n", "5", "--gamma", "0.201", "--x", "0", "--n0", "6"]
    written = []
    for name, argv in (("file", ["--config", str(cfg)]), ("flags", flags + initial_flags)):
        out = tmp_path / name
        assert run_cli(capsys, "clt", *argv, "--out", str(out))[0] == 0
        summary = (out / "summary.json").read_text().splitlines()
        summary = [line for line in summary if '"wall_time_seconds"' not in line]
        written.append(((out / "samples.csv").read_bytes(), summary))
    assert written[0] == written[1]
    assert b",0.0," in written[0][0]
    assert {'    "sigma": 1.0,', '    "x": 0.0'} <= set(written[0][1])


def test_clt_samples_reproducible_across_invocations(capsys, tmp_path):
    argv = ["clt", "--a", "0.5", "--n", "5", "--gamma", "0.201", "--x=-1.3", "--n0", "9"]
    run_cli(capsys, *argv, "--out", str(tmp_path / "one"))
    run_cli(capsys, *argv, "--out", str(tmp_path / "two"))
    a = (tmp_path / "one" / "samples.csv").read_bytes()
    b = (tmp_path / "two" / "samples.csv").read_bytes()
    assert a == b


# -- moments ----------------------------------------------------------------------

def test_moments_table(capsys):
    code, out = run_cli(
        capsys, "moments", "--f", "id", "--n", "2", "--x", "1.0", "--a", "0.5",
        "--m", "1", "--reps", "4000", "--seed", "1",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("f=id a=0.5")
    assert lines[1].split() == ["quantity", "oracle", "quad_err", "mc", "mc_se", "z"]
    rows = lines[2:]
    assert len(rows) == 3
    # oracle values: 2^2 a^2 x = 1, and the hand-checked second moment
    first = rows[0].split()
    assert first[0] == "E[M_G2(f)]"
    assert float(first[1]) == pytest.approx(1.0, rel=1e-6)
    for row in rows:
        cols = row.split()  # quantity names may contain spaces: index from the right
        assert float(cols[-4]) < 1e-8         # quad_err
        assert abs(float(cols[-1])) < 5.0     # z-score


def test_clt_refuses_a_file_as_out_before_running(capsys, monkeypatch, tmp_path):
    def no_run(*args, **kwargs):
        raise AssertionError("the CLT experiment ran")

    monkeypatch.setattr(cli, "run_clt_experiment", no_run)
    (tmp_path / "taken").write_text("")
    with pytest.raises(SystemExit) as exc:
        main(["clt", "--a", "0.5", "--n", "5", "--gamma", "0.201", "--x=-1.3", "--n0", "6",
              "--out", str(tmp_path / "taken")])
    assert exc.value.code == 2
    assert "is not a directory" in capsys.readouterr().err


def test_moments_asks_the_oracle_before_simulating(capsys, monkeypatch):
    # n = 13 is above the oracle's second-moment cost cap: the refusal
    # comes before 20000 trees of 2^14 - 1 nodes are simulated
    def no_simulation(*args, **kwargs):
        raise AssertionError("the Monte Carlo ran")

    monkeypatch.setattr(cli, "monte_carlo_generation_sums", no_simulation)
    with pytest.raises(SystemExit) as exc:
        main(["moments", "--f", "id", "--n", "13", "--x", "0", "--a", "0.5"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "exceeds the second-moment cost cap 12" in captured.err
    assert captured.out == ""


def test_estimate_refuses_a_non_finite_point_before_simulating(capsys, monkeypatch):
    # the query points are checked before a tree of 2^21 - 1 states is
    # simulated: the engine that simulate_tree runs is never entered
    def no_simulation(*args, **kwargs):
        raise AssertionError("the tree was simulated")

    monkeypatch.setattr(tree_sim, "generation_blocks", no_simulation)
    with pytest.raises(SystemExit) as exc:
        main(["estimate", "--a", "0.5", "--n", "20", "--gamma", "0.2", "--x=nan"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.err.count("bartree: error: ") == 1
    assert "query points contain non-finite values" in captured.err.splitlines()[-1]
    assert captured.out == ""


def test_estimate_refuses_a_non_finite_point_before_storing_the_tree(capsys, monkeypatch):
    def no_simulation(*args, **kwargs):
        raise AssertionError("the tree was simulated")

    monkeypatch.setattr(cli, "simulate_tree", no_simulation)
    with pytest.raises(SystemExit) as exc:
        main(["estimate", "--a", "0.5", "--n", "20", "--gamma", "0.2", "--x=nan", "--scope", "tree"])
    assert exc.value.code == 2
    assert "query points contain non-finite values" in capsys.readouterr().err


def test_moments_without_cross(capsys):
    code, out = run_cli(
        capsys, "moments", "--f", "one", "--n", "3", "--x", "0.0", "--a", "0.7",
        "--reps", "500",
    )
    assert code == 0
    rows = out.splitlines()[2:]
    assert len(rows) == 2
    # f = 1: both moments are deterministic, the MC column is exact, and
    # with mc_se = 0 a match within quad_err reads z = 0.00
    assert float(rows[0].split()[1]) == pytest.approx(8.0)
    assert float(rows[1].split()[1]) == pytest.approx(64.0)
    assert [row.split()[-2:] for row in rows] == [["0.00e+00", "0.00"]] * 2


def test_moments_of_the_pinned_root_match_exactly(capsys):
    # n = m = 0: every quantity is a power of f(x), with no sampling error;
    # the last two are cells whose mean np.mean would put one ulp off
    for f, x, a, reps in (("id", "0.5", "0.5", "100"), ("square", "-1.3", "0.9", "100"),
                          ("id", "0.7", "0.5", "1000")):
        code, out = run_cli(
            capsys, "moments", "--f", f, "--n", "0", "--m", "0", f"--x={x}", "--a", a,
            "--reps", reps,
        )
        assert code == 0
        assert [row.split()[-1] for row in out.splitlines()[2:]] == ["0.00"] * 3, out


def test_moments_flags_a_deterministic_mismatch(capsys, monkeypatch):
    # mc_se = 0 and an oracle off by one: the miss is an infinite z, not 0
    mean_MGn = cli.mean_MGn

    def off_by_one(*args):
        result = mean_MGn(*args)
        return dataclasses.replace(result, value=result.value + 1.0)

    monkeypatch.setattr(cli, "mean_MGn", off_by_one)
    code, out = run_cli(
        capsys, "moments", "--f", "one", "--n", "3", "--x", "0.5", "--a", "0.5", "--reps", "100",
    )
    assert code == 0
    assert [row.split()[-1] for row in out.splitlines()[2:]] == ["-inf", "0.00"]


# -- argparse plumbing -------------------------------------------------------------

def test_unknown_command_exits():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_missing_required_flag_exits():
    with pytest.raises(SystemExit):
        main(["estimate", "--a", "0.5", "--n", "4", "--gamma", "0.2"])


# stands for a --dump path (or a clt --out directory) inside the test's
# own directory
DUMP = "<dump>"
# a JSON config with a valid run and the given "initial" object
JSON_RUN = '{"a": 0.5, "n": 5, "gamma": 0.201, "x": -1.3, "n0": 6, "initial": %s}'
# each stands for a --config file in the test's directory with this text;
# MISSING_CONFIG for one that does not exist
CONFIGS = {
    "<unknown-field>": "a=0.5\nn=5\ngamma=0.201\nx=-1.3\nn0=6\nbananas=3\n",
    "<bad-line>": "a=0.5\nn 5\n",
    "<colon-line>": "a: 0.5\nn=5\ngamma=0.201\nx=-1.3\nn0=6\n",
    "<float-n>": "a=0.5\nn=5.0\ngamma=0.201\nx=-1.3\nn0=6\n",
    "<word-seed>": "a=0.5\nn=5\ngamma=0.201\nx=-1.3\nn0=6\nmaster_seed = abc\n",
    "<list-scope>": "a=0.5\nn=5\ngamma=0.201\nx=-1.3\nn0=6\nscope = [1]\n",
    "<word-bool>": "a=0.5\nn=5\ngamma=0.201\nx=-1.3\nn0=6\nrecord_previous_generation = no\n",
    "<json-string-n0>": '{"a": 0.5, "n": 5, "gamma": 0.201, "x": -1.3, "n0": "4"}',
    "<initial-no-rho0>": JSON_RUN % '{"m0": 0.0}',
    "<initial-extra-key>": JSON_RUN % '{"m0": 0.0, "rho0": 1.0, "mean": 0.0}',
    "<initial-word-m0>": JSON_RUN % '{"m0": "zero", "rho0": 1.0}',
    "<json-nan-x>": '{"a": 0.5, "n": 5, "gamma": 0.201, "x": NaN, "n0": 6}',
    "<initial-nan-m0>": JSON_RUN % '{"m0": NaN, "rho0": 1.0}',
}
CLT_RUN = ["clt", "--a", "0.5", "--n", "5", "--gamma", "0.201", "--n0", "6", "--out", DUMP]
MISSING_CONFIG = "<missing-config>"
# a --dump path in a directory that does not exist; a plain file as --out,
# and an --out below that file
DUMP_IN_MISSING_DIR = "<dump-in-missing-dir>"
FILE_AS_OUT = "<file-as-out>"
BELOW_A_FILE = "<below-a-file>"
TOO_DEEP = "tree depth n=63 out of range 0..62"
TOO_BIG = "tree depth n=23 exceeds the stored-tree limit 22"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["moments", "--f", "id", "--n", "2", "--m", "3", "--x", "1.0", "--a", "0.5"],
         "need n >= m >= 0"),
        (["estimate", "--a", "0.5", "--n", "4", "--gamma", "0.2", "--x=abc"],
         "could not convert string to float"),
        (["clt", "--a", "0.5", "--n", "70", "--gamma", "0.201", "--x=-1.3", "--n0", "3"],
         "tree depth n=70 out of range 0..62"),
        (["simulate", "--a", "0.5", "--n", "-1"], "tree depth n=-1 out of range 0..62"),
        (["simulate", "--a", "0.5", "--n", "-1", "--dump", DUMP],
         "tree depth n=-1 out of range 0..62"),
        (["estimate", "--a", "0.5", "--n", "-1", "--gamma", "0.2", "--x", "0.0"],
         "tree depth n=-1 out of range 0..62"),
        (["simulate", "--a", "0.5", "--n", "63"], TOO_DEEP),
        (["simulate", "--a", "0.5", "--n", "63", "--dump", DUMP], TOO_DEEP),
        (["estimate", "--a", "0.5", "--n", "63", "--gamma", "0.2", "--x", "0.0"], TOO_DEEP),
        (["simulate", "--a", "0.5", "--n", "23"], TOO_BIG),
        (["simulate", "--a", "0.5", "--n", "23", "--dump", DUMP], TOO_BIG),
        (["estimate", "--a", "0.5", "--n", "23", "--gamma", "0.2", "--x", "0.0"], TOO_BIG),
        (["clt", "--a", "0.5", "--n", "40", "--gamma", "0.201", "--x=-1.3", "--n0", "1",
          "--out", DUMP], "exceeds the work limit MAX_NODES = 8.59e+09"),
        (["moments", "--f", "id", "--n", "2", "--x", "0.5", "--a", "0.5", "--reps", "0"],
         "need at least one replicate, got 0"),
        (["moments", "--f", "id", "--n", "2", "--x", "0.5", "--a", "0.5", "--reps", "1"],
         "standard error needs at least two replicates, got 1"),
        (["check", "--a", "0.5", "--gamma", "0.201", "--m0", "0.0"],
         "provide --m0 and --rho0 together"),
        # the bias order is the kernel's, and a retired --s is not read as --sigma
        (["check", "--a", "0.5", "--gamma", "0.201", "--s", "2"],
         "unrecognized arguments: --s 2"),
        (["clt", "--a", "0.5", "--n", "5", "--out", DUMP],
         "missing required config fields: gamma, x, n0"),
        (["clt", "--config", "<unknown-field>", "--out", DUMP],
         "unexpected keyword argument 'bananas'"),
        (["clt", "--config", "<bad-line>", "--out", DUMP], "cannot parse config line 'n 5'"),
        (["clt", "--config", "<colon-line>", "--out", DUMP], "cannot parse config line 'a: 0.5'"),
        (["clt", "--config", MISSING_CONFIG, "--out", DUMP],
         "cannot read config file: [Errno 2] No such file or directory"),
        (["clt", "--a", "0.5", "--n", "4", "--gamma", "0.201", "--x=-1.3", "--n0", "5",
          "--out", DUMP, "--histogram", "--bins", "0"], "--bins must be >= 1, got 0"),
        (["clt", "--a", "0.5", "--n", "4", "--gamma", "0.201", "--x=-1.3", "--n0", "5",
          "--out", DUMP, "--bins", "7"], "--bins needs --histogram"),
        (["clt", "--config", "<float-n>", "--out", DUMP],
         "config field 'n' must be int, got 5.0"),
        (["clt", "--config", "<word-seed>", "--out", DUMP],
         "config field 'master_seed' must be int, got 'abc'"),
        (["clt", "--config", "<list-scope>", "--out", DUMP],
         "config field 'scope' must be str, got [1]"),
        (["clt", "--config", "<word-bool>", "--out", DUMP],
         "config field 'record_previous_generation' must be bool, got 'no'"),
        (["clt", "--config", "<json-string-n0>", "--out", DUMP],
         "config field 'n0' must be int, got '4'"),
        (["clt", "--config", "<initial-no-rho0>", "--out", DUMP],
         "config field 'initial' is missing key 'rho0'"),
        (["clt", "--config", "<initial-extra-key>", "--out", DUMP],
         "config field 'initial' has unknown key 'mean'"),
        (["clt", "--config", "<initial-word-m0>", "--out", DUMP],
         "config field 'initial.m0' must be float, got 'zero'"),
        ([*CLT_RUN, "--x=nan"], "query point x must be finite, got nan"),
        ([*CLT_RUN, "--x=inf"], "query point x must be finite, got inf"),
        ([*CLT_RUN, "--x=-1.3", "--m0", "0", "--rho0", "inf"],
         "need a finite m0 and rho0 >= 0, got m0=0.0, rho0=inf"),
        (["clt", "--config", "<json-nan-x>", "--out", DUMP],
         "query point x must be finite, got nan"),
        (["clt", "--config", "<initial-nan-m0>", "--out", DUMP],
         "need a finite m0 and rho0 >= 0, got m0=nan, rho0=1.0"),
        (["estimate", "--a", "0.5", "--n", "4", "--gamma", "0.2", "--x=0.0,nan"],
         "query points contain non-finite values"),
        (["moments", "--f", "id", "--n", "2", "--x", "nan", "--a", "0.5"],
         "--x must be finite, got nan"),
        (["simulate", "--a", "0.5", "--n", "3", "--dump", DUMP_IN_MISSING_DIR],
         "cannot write dump file: [Errno 2] No such file or directory"),
        (["clt", "--a", "0.5", "--n", "5", "--gamma", "0.201", "--x=-1.3", "--n0", "6",
          "--out", FILE_AS_OUT], "taken' is not a directory"),
        (["clt", "--a", "0.5", "--n", "5", "--gamma", "0.201", "--x=-1.3", "--n0", "6",
          "--out", BELOW_A_FILE], "cannot write output directory: [Errno 20] Not a directory"),
    ],
    ids=[
        "moments_m_above_n", "estimate_bad_x", "clt_n_too_deep", "simulate_negative_n",
        "simulate_negative_n_dump", "estimate_negative_n", "simulate_n_too_deep", "simulate_n_too_deep_dump",
        "estimate_n_too_deep", "simulate_n_above_stored_limit",
        "simulate_n_above_stored_limit_dump", "estimate_n_above_stored_limit",
        "clt_beyond_work_limit", "moments_zero_reps", "moments_one_rep", "check_m0_without_rho0",
        "check_retired_s", "clt_missing_fields", "clt_unknown_field_in_config", "clt_bad_config_line",
        "clt_colon_config_line", "clt_missing_config_file", "clt_zero_bins",
        "clt_bins_without_histogram", "clt_float_n_in_config",
        "clt_word_seed_in_config", "clt_list_scope_in_config", "clt_word_bool_in_config", "clt_string_n0_in_json_config",
        "clt_initial_without_rho0", "clt_initial_extra_key", "clt_initial_word_m0",
        "clt_nan_x", "clt_inf_x", "clt_inf_rho0", "clt_nan_x_in_json_config",
        "clt_nan_initial_in_json_config", "estimate_nan_x", "moments_nan_x",
        "simulate_dump_in_missing_dir", "clt_out_is_a_file", "clt_out_below_a_file",
    ],
)
def test_bad_value_is_a_usage_error(capsys, tmp_path, argv, message):
    # one error line, exit 2, and nothing written: no stdout, no dump file
    dump = tmp_path / "traj.csv"

    def resolve(arg):
        if arg == DUMP:
            return str(dump)
        if arg in CONFIGS:
            (tmp_path / "run.cfg").write_text(CONFIGS[arg])
            return str(tmp_path / "run.cfg")
        if arg == MISSING_CONFIG:
            return str(tmp_path / "absent.cfg")
        if arg == DUMP_IN_MISSING_DIR:
            return str(tmp_path / "absent" / "traj.csv")
        if arg in (FILE_AS_OUT, BELOW_A_FILE):
            taken = tmp_path / "taken"
            taken.write_text("")
            return str(taken / "out" if arg == BELOW_A_FILE else taken)
        return arg

    with pytest.raises(SystemExit) as exc:
        main([resolve(arg) for arg in argv])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    last = captured.err.splitlines()[-1]
    assert last.startswith("bartree: error: ") and message in last
    assert captured.err.count("bartree: error: ") == 1
    assert captured.out == ""
    assert not dump.exists()
