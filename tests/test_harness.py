import csv
import os
import re
from dataclasses import asdict, fields

import numpy as np
import pytest

from hedgehog import kernels as K
from hedgehog.cli import build_parser, config_from_args, main
from hedgehog.errors import UsageError
from hedgehog.harness import (
    ExperimentConfig,
    choose_b,
    extrapolation_error,
    fit_convergence_order,
    run_extrapolation_sweep,
    run_greens_identity,
    run_solver_convergence,
)
from hedgehog.references import ReferenceSolution


def test_eoc_fit_recovers_exact_order():
    lengths = np.array([0.8, 0.4, 0.2, 0.1])
    errors = 3.7 * lengths**5
    assert fit_convergence_order(lengths, errors) == pytest.approx(5.0, abs=1e-12)


def test_eoc_fit_handles_zero_errors():
    assert np.isnan(fit_convergence_order([0.5, 0.25], [0.0, 0.0]))


def test_reference_solution_deterministic():
    a = ReferenceSolution.on_sphere(K.LAPLACE, m=25, seed=11)
    b = ReferenceSolution.on_sphere(K.LAPLACE, m=25, seed=11)
    assert np.array_equal(a.charges, b.charges)
    assert np.array_equal(a.strengths, b.strengths)
    c = ReferenceSolution.on_sphere(K.LAPLACE, m=25, seed=12)
    assert not np.array_equal(a.charges, c.charges)
    assert np.abs(np.linalg.norm(a.charges, axis=1) - 1.0).max() < 1e-12
    assert a.strengths.min() >= 0.0 and a.strengths.max() <= 1.0


def test_reference_solution_zero_charges_gives_zero_field():
    ref = ReferenceSolution(
        charges=np.zeros((0, 3)), strengths=np.zeros((0, 1)), kernel=K.LAPLACE
    )
    pts = np.random.default_rng(0).normal(size=(5, 3))
    assert np.abs(ref.field(pts)).max() == 0.0


def test_greens_identity_zero_charges_zero_residual(tmp_path):
    config = ExperimentConfig(
        experiment="greens-identity",
        geometry="builtin:sphere",
        per_face=1,
        degree=8,
        levels=1,
        q=6,
        b=0.2,
        a=0.2 / 6,
        upsample_levels=1,
        charges=0,
        target_subsample=40,
        eps_geometry=1e-3,
        out=str(tmp_path),
    )
    rows, eoc = run_greens_identity(config)
    assert rows[0][4] == 0.0


def _small_sphere(**overrides):
    """Green's identity on the 6-quad sphere: 24 admissible patches at q = 6."""
    settings = dict(
        experiment="greens-identity",
        geometry="builtin:sphere",
        per_face=1,
        degree=8,
        levels=1,
        q=6,
        b=0.2,
        a=0.2 / 6,
        upsample_levels=1,
        charges=5,
        charge_radius=1.8,
        target_subsample=40,
        eps_geometry=1e-3,
        out=None,
    )
    settings.update(overrides)
    return ExperimentConfig(**settings)


def test_greens_identity_geometry_stage_honours_min_length(tmp_path):
    # at eps_geometry 1e-5 the fit splits the six quads; a length floor
    # above every patch stops it at the quads and says so in the report
    config = _small_sphere(eps_geometry=1e-5, min_length=10.0, out=str(tmp_path))
    with pytest.warns(UserWarning, match="geometry refinement stopped by min_length"):
        rows, _ = run_greens_identity(config)
    assert rows[0][1] == 6
    report = (tmp_path / "refinement_report.txt").read_text()
    assert "geometry sweep 0: 6 patches" in report
    assert "warning: geometry refinement stopped by min_length" in report


def test_solve_refines_for_the_boundary_condition(tmp_path):
    # the six quads' 24 patches resolve the point-charge data to 1e-3 but
    # not to 1e-4, where one of them splits
    config = _small_sphere(experiment="solve", eps_boundary=1e-4, out=str(tmp_path))
    rows, _ = run_solver_convergence(config)
    assert rows[0][1] == 27
    report = (tmp_path / "refinement_report.txt").read_text()
    assert "boundary-condition sweep 0: 24 patches" in report
    assert "boundary-condition sweep 1: 27 patches" in report


def test_summary_writes_the_check_line_as_it_ran(tmp_path):
    """a left to default to b / 6 and sqrt_scaling both read back as used."""
    config = _small_sphere(a=None, sqrt_scaling=False, out=str(tmp_path))
    run_greens_identity(config)
    text = (tmp_path / "greens-identity_summary.txt").read_text()
    line = next(ln for ln in text.splitlines() if ln.startswith("check line: "))
    written = dict(item.split("=") for item in line.split(": ", 1)[1].split())
    expected = asdict(config.eval_options().check_line())
    assert written == {k: str(v) for k, v in expected.items()}
    assert float(written["a"]) == 0.2 / 6 and written["sqrt_scaling"] == "False"


def test_greens_identity_over_the_pair_budget_names_the_pair_count(monkeypatch):
    config = _small_sphere()
    checks = config.target_subsample * (config.p + 1)
    # each uniform level halves the node spacing; copies on shared edges are one node
    fine_nodes = 24 * (2**config.upsample_levels * (config.q - 1) + 1) ** 2
    pairs = checks * fine_nodes
    monkeypatch.setattr(K, "PAIR_BUDGET", pairs - 1)
    with pytest.raises(UsageError, match=re.escape(f"{pairs:.3g} pairs exceeds the budget")):
        run_greens_identity(config)


@pytest.mark.parametrize("kernel", ["stokes", "elasticity"])
def test_greens_identity_vector_kernels_converge(kernel):
    config = _small_sphere(kernel=kernel, levels=2, q=8, target_subsample=100)
    rows, _ = run_greens_identity(config)
    assert [r[1] for r in rows] == [24, 96]
    assert rows[1][4] < rows[0][4]


def test_extrapolation_sweep_rows_and_monotonicity(tmp_path):
    config = ExperimentConfig(experiment="extrapolation-sweep", out=str(tmp_path))
    rows = run_extrapolation_sweep(config, p_list=(6,))
    path = os.path.join(str(tmp_path), "extrapolation-sweep.csv")
    with open(path) as fh:
        header = next(csv.reader(fh))
    assert header == ["p", "R_over_rho", "rp_over_R", "log10_rel_error"]
    # errors grow monotonically with R/rho along the a = b/p line
    line = [(r[1], r[3]) for r in rows if abs(r[2] - 1.0) < 0.02]
    line.sort()
    vals = [v for _, v in line]
    assert all(b >= a - 1e-9 for a, b in zip(vals, vals[1:]))


def test_extrapolation_sweep_large_p_small_spacing_degrades():
    # p = 14: spacings well below the stability threshold lose accuracy
    # against moderate spacing at the same extrapolation distance
    ray = 0.3 * 0.1
    tiny = extrapolation_error(ray, ray * 0.02 / 14.0, 14)
    moderate = extrapolation_error(ray, ray * 0.75 / 14.0, 14)
    assert tiny > moderate


def test_extrapolation_sweep_polynomial_data_machine_precision():
    # degree <= p data: errors at machine scale across the whole sweep
    from hedgehog.chebyshev import extrapolate, extrapolation_weights

    rng = np.random.default_rng(1)
    coeffs = rng.uniform(-1, 1, 7) * 0.1
    for ray in (0.01, 0.05, 0.2):
        for spacing in (ray / 12, ray / 6, ray):
            pos = ray + spacing * np.arange(7)
            vals = np.polynomial.polynomial.polyval(pos, coeffs)
            exact = np.polynomial.polynomial.polyval(0.0, coeffs)
            got = extrapolate(vals, extrapolation_weights(6, -ray / spacing))[0]
            assert abs(got - exact) < 1e-11


def test_choose_b_monotone_in_target():
    bs = [choose_b(e) for e in (1e-4, 1e-5, 1e-6, 1e-7)]
    assert all(a >= b for a, b in zip(bs, bs[1:]))
    assert 0.02 <= bs[-1] <= bs[0] <= 0.30


def test_cli_parser_round_trip():
    parser = build_parser()
    args = parser.parse_args(
        [
            "greens-identity",
            "--geometry",
            "builtin:torus",
            "--q",
            "12",
            "--b",
            "0.05",
            "--seed",
            "3",
            "--torus-quads",
            "4x2",
            "--out",
            "/tmp/x",
        ]
    )
    config = config_from_args(args)
    assert config.experiment == "greens-identity"
    assert config.q == 12 and config.seed == 3
    assert config.torus_quads == (4, 2)


def test_cli_defaults_equal_experiment_config():
    defaults = ExperimentConfig()
    config = config_from_args(build_parser().parse_args([defaults.experiment]))
    for f in fields(ExperimentConfig):
        assert getattr(config, f.name) == getattr(defaults, f.name), f.name


def test_cli_extrapolation_sweep_smoke(tmp_path, capsys):
    rc = main(["extrapolation-sweep", "--out", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "extrapolation-sweep.csv").exists()


def test_cli_small_greens_identity(tmp_path):
    rc = main(
        [
            "greens-identity",
            "--geometry",
            "builtin:sphere",
            "--per-face",
            "1",
            "--degree",
            "8",
            "--levels",
            "1",
            "--q",
            "6",
            "--b",
            "0.2",
            "--a",
            "0.033",
            "--upsample-levels",
            "1",
            "--charges",
            "5",
            "--charge-radius",
            "1.8",
            "--target-subsample",
            "40",
            "--eps-geometry",
            "1e-3",
            "--out",
            str(tmp_path),
        ]
    )
    assert rc == 0
    path = tmp_path / "greens-identity.csv"
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0][:5] == ["level", "patches", "nodes", "targets", "linf_rel_error"]
    assert len(rows) == 2
    assert (tmp_path / "refinement_report.txt").exists()


def test_cli_rejects_unknown_geometry(tmp_path):
    rc = main(["greens-identity", "--geometry", "builtin:klein", "--out", str(tmp_path)])
    assert rc == 1


def test_cli_reports_a_broken_geometry_file(tmp_path, capsys):
    """A malformed or missing geometry file ends in an error line and exit
    code 1, not a traceback."""
    bad = tmp_path / "bad.txt"
    bad.write_text("degree 2\nquads 1\n0 0 0 1.0 2.0 3.0\n")
    for path in (bad, tmp_path / "missing.txt"):
        rc = main(["greens-identity", "--geometry", str(path), "--out", str(tmp_path)])
        assert rc == 1
        assert capsys.readouterr().err.startswith(f"error: {path}: ")


@pytest.mark.slow
def test_greens_identity_torus_error_decays(tmp_path):
    # one uniform quadrisection of the torus drops the residual by far
    # more than the 2^4 of a fourth-order scheme
    config = ExperimentConfig(
        experiment="greens-identity",
        geometry="builtin:torus",
        torus_quads=(8, 4),
        degree=16,
        levels=2,
        q=20,
        b=0.03,
        a=0.004,
        sqrt_scaling=True,
        upsample_levels=2,
        charges=100,
        charge_radius=1.0,
        target_subsample=600,
        eps_geometry=1e-4,
        out=str(tmp_path),
    )
    rows, eoc = run_greens_identity(config)
    errors = [r[4] for r in rows]
    assert errors[0] / errors[1] > 16.0
