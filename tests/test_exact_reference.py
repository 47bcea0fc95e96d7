"""The closed-form law of zeta_n against the quadrature moment oracle.

Several acceptance batteries are gated against the exact finite-n law of
zeta_n from scripts/exact_zeta_variance.py, so that reference is checked
here by a route that shares no code with it: the oracle's moments of
M_{G_n}(f_h), with the root pinned, integrated over a stationary root.

With f_h(y) = h^{-1/2} K((x - y)/h) and A_n the scope's node set,
zeta_n = |A_n|^{-1/2} M_{A_n}(f_h) - (|A_n| h)^{1/2} mu(x), so

    E[zeta_n]   = |A_n|^{-1/2} E[M] - (|A_n| h)^{1/2} mu(x),
    Var(zeta_n) = Var(M) / |A_n|,

and the whole-tree sum is M_{T_n} = sum_{g <= n} M_{G_g}(f_{h_n}).
"""

import ast
import math
from pathlib import Path

import numpy as np
import pytest

from bartree.bar_model import BarModel, invariant_density
from bartree.oracle import cross_moment_MGn_MGm, mean_MGn, second_moment_MGn
from bartree.smoothing import gaussian_kernel

X, GAMMA = -1.3, 0.201
RTOL = 1e-5


def _f_h(n):
    h = 2.0 ** (-n * GAMMA)
    K = gaussian_kernel()
    return h, lambda y: h**-0.5 * K.evaluate((X - np.asarray(y, dtype=float)) / h)


def _stationary(moment, model, quad):
    """E_mu of a root-pinned oracle moment: integrate it over X_root ~ mu."""
    return quad.expect(np.vectorize(lambda root: moment(root).value), std=model.sigma_a)


def _assert_mean_close(zeta_mean, shift, var):
    assert math.isclose(zeta_mean, shift, rel_tol=RTOL, abs_tol=RTOL * math.sqrt(var)), (
        f"E[zeta]: oracle {zeta_mean!r}, closed form {shift!r}"
    )


@pytest.mark.parametrize("n", (2, 4))
@pytest.mark.parametrize("a", (0.5, 0.7))
def test_generation_scope_law_matches_oracle(a, n, quad64, exact_zeta):
    model = BarModel(a, 1.0)
    h, f = _f_h(n)
    _, fp = _f_h(n - 1)
    m_n = _stationary(lambda r: mean_MGn(f, n, r, model, quad64), model, quad64)
    m_p = _stationary(lambda r: mean_MGn(fp, n - 1, r, model, quad64), model, quad64)
    s_n = _stationary(lambda r: second_moment_MGn(f, n, r, model, quad64), model, quad64)
    s_p = _stationary(
        lambda r: second_moment_MGn(fp, n - 1, r, model, quad64), model, quad64
    )
    c = _stationary(
        lambda r: cross_moment_MGn_MGm(f, fp, n, n - 1, r, model, quad64), model, quad64
    )
    var = (s_n - m_n**2) / 2**n
    var_p = (s_p - m_p**2) / 2 ** (n - 1)
    corr = (c - m_n * m_p) / 2 ** (n - 0.5) / math.sqrt(var * var_p)
    zeta_mean = m_n / 2 ** (n / 2) - math.sqrt(2**n * h) * invariant_density(X, model)

    exact_var, _, exact_shift, exact_corr = exact_zeta.analyze(a, 1.0, n, GAMMA, X, "gen")
    assert math.isclose(var, exact_var, rel_tol=RTOL), (
        f"Var(zeta_{n}) at a={a}: oracle {var!r}, closed form {exact_var!r}"
    )
    assert math.isclose(corr, exact_corr, rel_tol=RTOL), (
        f"corr(zeta_{n}, zeta_{n - 1}) at a={a}: oracle {corr!r}, "
        f"closed form {exact_corr!r}"
    )
    _assert_mean_close(zeta_mean, exact_shift, exact_var)


@pytest.mark.parametrize("a", (0.5, 0.7))
def test_tree_scope_law_matches_oracle(a, quad64, exact_zeta):
    n = 3
    model = BarModel(a, 1.0)
    h, f = _f_h(n)
    card = 2 ** (n + 1) - 1
    mean = sum(
        _stationary(lambda r, g=g: mean_MGn(f, g, r, model, quad64), model, quad64)
        for g in range(n + 1)
    )
    # E[M_T^2] = sum over ordered generation pairs; the off-diagonal ones twice
    second = sum(
        (1 if g2 == g1 else 2)
        * _stationary(
            lambda r, g1=g1, g2=g2: cross_moment_MGn_MGm(f, f, g1, g2, r, model, quad64),
            model,
            quad64,
        )
        for g1 in range(n + 1)
        for g2 in range(g1 + 1)
    )
    var = (second - mean**2) / card
    zeta_mean = mean / math.sqrt(card) - math.sqrt(card * h) * invariant_density(X, model)

    exact_var, _, exact_shift, _ = exact_zeta.analyze(a, 1.0, n, GAMMA, X, "tree")
    assert math.isclose(var, exact_var, rel_tol=RTOL), (
        f"tree-scope Var(zeta_{n}) at a={a}: oracle {var!r}, closed form {exact_var!r}"
    )
    _assert_mean_close(zeta_mean, exact_shift, exact_var)


# -- the script's command line -------------------------------------------------

# The README's table: `python3 scripts/exact_zeta_variance.py` at n=15.
DEFAULT_TABLE = """\
case                             var_n   var_lim   ratio     mean  corr(n,n-1)
a=0.5 gamma=0.201 gen          0.05022   0.05171   0.971   0.0173        0.132
a=0.7 gamma=0.201 gen          0.07154   0.05223   1.370  -0.0065        0.408
a=0.9 gamma=0.696 gen          0.05149   0.04178   1.232  -0.0000        0.191
a=0.9 gamma=0.201 gen          1.69789   0.04178  40.640  -0.0093        0.976
a=0.5 gamma=0.201 tree         0.06687   0.05171   1.293   0.0245          nan
a=0.7 gamma=0.201 tree         0.17100   0.05223   3.274  -0.0092          nan
"""


def test_default_table_is_unchanged(exact_zeta, capsys):
    assert exact_zeta.main([]) == 0
    assert capsys.readouterr().out == DEFAULT_TABLE


@pytest.mark.parametrize(
    "argv",
    [
        # E[M^2] - E[M]^2 leaves var_n = -24 (gen) or -48 (tree)
        pytest.param(["--a", "0.9", "--gamma", "0.696", "--n", "200"], id="gen"),
        pytest.param(
            ["--a", "0.9", "--gamma", "0.696", "--n", "200", "--scope", "tree"], id="tree"
        ),
        # var_{n-1} < 0, so sqrt(var * var_prev) has no real value
        pytest.param(["--a", "0.5", "--n", "70"], id="a05_n70"),
        # var_n = 0, so the correlation would divide by zero
        pytest.param(["--a", "0.7", "--n", "70"], id="a07_n70"),
        # var_n = 256 > 0 is round-off too (ratio 4950, corr 1.000)
        pytest.param(["--a", "0.5", "--n", "80"], id="a05_n80"),
        # just past the validated range: var_n is still positive and plausible
        pytest.param(["--a", "0.5", "--n", "41", "--scope", "tree"], id="tree_n41"),
    ],
)
def test_cancelled_variance_is_refused(exact_zeta, capsys, argv):
    assert exact_zeta.main(argv) == 1
    out, err = capsys.readouterr()
    assert out.splitlines() == DEFAULT_TABLE.splitlines()[:1]  # the header, no row
    assert "E[M^2] - E[M]^2" in err
    assert "n=40" in err


# a question outside the model: (id, argv, the rule named on stderr)
OUTSIDE = [
    ("n_negative", "--n -1", "n must be non-negative"),
    ("n_negative_tree", "--a 0.5 --n -2 --scope tree", "n must be non-negative"),
    ("a_one", "--a 1.0", "|a| < 1"),
    ("a_below", "--a -1.5", "|a| < 1"),
    ("sigma_zero", "--sigma 0", "sigma must be finite and > 0"),
    ("sigma_negative", "--sigma -1", "sigma must be finite and > 0"),
    ("sigma_inf", "--sigma inf", "sigma must be finite and > 0"),
    ("gamma_zero", "--a 0.5 --gamma 0", "gamma must lie in (0, 1)"),
    ("gamma_one", "--a 0.5 --gamma 1.0", "gamma must lie in (0, 1)"),
    ("x_inf", "--x=-inf", "query point x must be finite"),
    ("x_nan", "--x nan", "query point x must be finite"),
]


@pytest.mark.parametrize("argv, rule", [pytest.param(argv, rule, id=case)
                                        for case, argv, rule in OUTSIDE])
def test_question_outside_the_model_is_refused(exact_zeta, capsys, argv, rule):
    assert exact_zeta.main(argv.split()) == 1
    out, err = capsys.readouterr()
    assert out.splitlines() == DEFAULT_TABLE.splitlines()[:1]  # the header, no row
    assert rule in err


@pytest.mark.parametrize("flag", ["--gamma=0.5", "--scope=tree"])
def test_case_flags_without_a_are_refused(exact_zeta, capsys, flag):
    with pytest.raises(SystemExit) as exc:  # the default cases carry their own
        exact_zeta.main([flag])
    assert (exc.value.code, capsys.readouterr().out) == (2, "")


def test_generation_zero_has_no_correlation(exact_zeta):
    # there is no generation -1 to correlate zeta_0 with
    assert math.isnan(exact_zeta.analyze(0.5, 1.0, 0, 0.201, -1.3, "gen")[3])


# a gamma scope n: the repr of var_n, the limit variance, the mean shift and
# the correlation at x=-1.3, sigma=1, pinned below the default table's 5 decimals
PINNED_REPRS = """\
0.5 0.201 gen 15 0.050223081805739866 0.05171322678703063 0.017348303841603296 0.13236954191528322
0.5 0.201 gen 30 0.05153283744584769 0.05171322678703063 0.017449002240617625 0.016350332814747973
0.5 0.201 gen 40 0.05166834592819214 0.05171322678703063 0.017157161830622564 0.00404867583983207
0.5 0.201 tree 15 0.06686943549757474 0.05171322678703063 0.024534019395109116 nan
0.5 0.201 tree 30 0.05363853627519614 0.05171322678703063 0.024676615612814496 nan
0.5 0.201 tree 40 0.05219137668611992 0.05171322678703063 0.024263890952690916 nan
0.9 0.696 gen 15 0.05149057832462012 0.041778799375095724 -2.4039883737712167e-08 0.19068546850572554
0.9 0.696 gen 30 0.050998315973851405 0.041778799375095724 -6.023304876680296e-14 0.1808162213130371
0.9 0.696 gen 40 0.0509809763108251 0.041778799375095724 0.0 0.1805065998516903
0.9 0.696 tree 15 0.06697080513911441 0.041778799375095724 -3.399727023818893e-08 nan
0.9 0.696 tree 30 0.06513304376632376 0.041778799375095724 -8.51823944492597e-14 nan
0.9 0.696 tree 40 0.06507386519763375 0.041778799375095724 0.0 nan
"""


def test_outputs_are_pinned_to_the_bit(exact_zeta):
    for line in PINNED_REPRS.splitlines():
        a, gamma, scope, n, *want = line.split()
        got = exact_zeta.analyze(float(a), 1.0, int(n), float(gamma), -1.3, scope)
        assert list(map(repr, got)) == want, line


def test_validated_range_is_answered(exact_zeta):
    # up to n=40, where the closed form was checked against 60-digit mpmath
    for a, gamma, scope in exact_zeta.DEFAULT_CASES:
        var, lim, _, _ = exact_zeta.analyze(a, 1.0, 40, gamma, X, scope)
        assert var > lim / 2.0, (a, gamma, scope, var, lim)


def test_criterion2_bandwidth_sits_on_a_plateau(exact_zeta):
    # gamma=0.696 at a=0.9 is 6e-6 above the super-critical bound
    # 1 + log2(0.81), so its excess variance barely decays: the limit-law
    # gate of test_criterion2_admissible_supercritical meets a ratio of
    # about 1.22 at every depth, and its 18/20 is a plateau, not a flake.
    # A bandwidth well inside the admissible range does tend to 1.
    def ratio(gamma, n):
        var, lim, _, _ = exact_zeta.analyze(0.9, 1.0, n, gamma, -1.3, "gen")
        return var / lim

    plateau = [ratio(0.696, n) for n in (15, 18, 20, 25, 30, 40)]
    assert min(plateau) >= 1.22, plateau
    assert plateau[0] - plateau[-1] < 0.015, plateau
    assert ratio(0.8, 40) < 1.02


def test_script_imports_no_package_code(exact_zeta):
    tree = ast.parse(Path(exact_zeta.__file__).read_text())
    imported = {
        alias.name.split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
    } | {node.module.split(".")[0] for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert imported == {"argparse", "sys", "math"}
