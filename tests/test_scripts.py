"""Smoke tests of the study scripts in scripts/, run in process on tiny inputs.

Both scripts drive the harness entry points (run_clt_experiment and
monte_carlo_generation_sums), so a change of those entry points that
breaks a script shows here.
"""


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


def test_moment_check_runs(script, capsys):
    argv = ["--reps", "2000", "--a", "0.5", "--n", "1", "2", "--x", "0.0", "1.0"]
    assert script("moment_check").main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    # header, one row per (x, f, n), a blank line and the verdict
    assert len(lines) == 1 + 2 * 2 * 2 + 2
    assert lines[-1].endswith("cells over 4.0: 0")
