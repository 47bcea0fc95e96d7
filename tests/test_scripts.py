"""Smoke tests of scripts/clt_sweep.py, run in process on tiny inputs.

The script drives the harness entry point run_clt_experiment, so a
change of that entry point that breaks the script shows here. The other
study script, exact_zeta_variance.py, is checked in test_exact_reference.py.
"""

import subprocess
import sys

import pytest

from conftest import CHILD_ENV, ROOT


def test_clt_sweep_runs(script, capsys):
    argv = ["--a", "0.5", "--n", "4", "--n0", "20", "--seeds", "2", "--record-prev"]
    assert script("clt_sweep").main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines[2:4]] == ["0", "1"]
    assert lines[-2].startswith("KS pass: ")
    assert lines[-1].startswith("|corr| < 3/sqrt(n0) pass: ")


def test_clt_sweep_tree_scope_runs(script, capsys):
    argv = ["--a", "0.5", "--n", "3", "--n0", "10", "--seeds", "1", "--scope", "tree"]
    assert script("clt_sweep").main(argv) == 0
    assert "KS pass: " in capsys.readouterr().out


@pytest.mark.parametrize("argv", ["--seeds 0", "--seeds -3", "--n0 1", "--n0 0"])
def test_clt_sweep_refuses_a_sweep_without_a_verdict(argv):
    # a usage error (exit 2) before any run, so nothing reaches stdout
    proc = subprocess.run([sys.executable, "scripts/clt_sweep.py", "--a", "0.5", "--n", "3",
                           *argv.split()], cwd=ROOT, env=CHILD_ENV, capture_output=True,
                          timeout=60)
    assert (proc.returncode, proc.stdout) == (2, b"")
    assert f"{argv.split()[0]} must be" in proc.stderr.decode()


@pytest.mark.parametrize("argv", ["--gamma 1.5", "--a 1.2", "--n 0 --record-prev",
                                  "--record-prev --n0 2", "--a 0.5 --n 40 --n0 2 --seeds 1",
                                  "--n 0 --n0 4194305"])
def test_clt_sweep_refuses_a_config_before_any_output(argv):
    # the config's gate refuses these, 2^42 nodes of work included (and
    # independence_report needs 3 pairs): a usage error before the header,
    # not a traceback after it
    proc = subprocess.run([sys.executable, "scripts/clt_sweep.py", "--a", "0.5", "--n", "3",
                           "--seeds", "1", *argv.split()], cwd=ROOT, env=CHILD_ENV,
                          capture_output=True, timeout=60)
    assert (proc.returncode, proc.stdout) == (2, b"")
    assert "clt_sweep.py: error: " in proc.stderr.decode()
