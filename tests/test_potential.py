import numpy as np
import pytest

from gplab.errors import ConfigurationError, DomainError
from gplab.grids import GridSpec
from gplab.potential import (
    BarrierPotential,
    GaussianPotential,
    TablePotential,
    TrapModel,
    alpha_strength,
    born_coupling,
    born_coupling_1d,
    from_table_csv,
    scale_potential,
)


def test_barrier_piecewise_values():
    model = BarrierPotential(1.0, 1.0)
    assert model(0.5) == 1.0
    assert model(2.0) == 0.0
    assert model(1.0) == 1.0  # support is closed


def test_negative_radius_rejected():
    model = BarrierPotential(1.0, 1.0)
    with pytest.raises(DomainError):
        model(-0.1)
    with pytest.raises(DomainError):
        model(np.array([0.2, -0.3]))


def test_gaussian_compact_support():
    model = GaussianPotential(2.0, 0.5)
    assert model.cutoff_radius == 3.0
    assert model(3.1) == 0.0
    assert model(0.0) == 2.0
    nan, inf = float("nan"), float("inf")
    for make in (
        lambda: GaussianPotential(nan, 0.5),
        lambda: GaussianPotential(2.0, inf),
        lambda: GaussianPotential(2.0, 0.5, nan),
        lambda: BarrierPotential(inf, 1.0),
        lambda: BarrierPotential(1.0, nan),
    ):
        with pytest.raises(ConfigurationError, match="finite"):
            make()


def test_table_hits_tabulated_values():
    radii = (0.0, 0.5, 1.0, 1.5)
    values = (1.0, 0.7, 0.2, 0.0)
    model = TablePotential(radii, values)
    for r, v in zip(radii, values):
        assert model(r) == pytest.approx(v, abs=1e-14)
    assert model(2.0) == 0.0


def test_table_interpolation_stays_nonnegative():
    # a natural cubic would undershoot below zero between these samples
    model = TablePotential((0.0, 0.5, 1.0, 1.5, 2.0), (1.0, 0.01, 0.0, 0.5, 0.0))
    probe = np.linspace(0.0, 2.0, 1001)
    assert np.all(model(probe) >= 0.0)


@pytest.mark.parametrize(
    "radii, values",
    [
        ((0.0, 0.5, 0.5), (1.0, 0.5, 0.0)),  # not strictly increasing
        ((0.0, 1.0), (1.0, 0.5)),  # does not end at zero
        ((0.0, 1.0), (-1.0, 0.0)),  # negative sample
    ],
)
def test_table_invariants_rejected(radii, values):
    with pytest.raises(ConfigurationError):
        TablePotential(radii, values)


def test_table_with_subnormal_sample_builds_without_warnings():
    # the suite turns RuntimeWarnings into errors
    model = TablePotential((0.0, 1.0, 2.0), (1.0, 5e-324, 0.0))
    probe = np.linspace(0.0, 2.0, 101)
    assert np.all((model(probe) >= 0.0) & (model(probe) <= 1.0))
    assert model(1.0) == 5e-324


def test_table_csv_roundtrip(tmp_path):
    path = tmp_path / "profile.csv"
    path.write_text("radius,value\n0.0,1.0\n0.5,0.5\n1.0,0.0\n")
    model = from_table_csv(path)
    assert model.cutoff_radius == 1.0
    assert model(0.5) == pytest.approx(0.5)
    bad = tmp_path / "bad.csv"
    bad.write_text("r,v\n0.0,1.0\n")
    with pytest.raises(ConfigurationError):
        from_table_csv(bad)
    for row in ("nan,0.5", "0.5,nan", "0.5,inf"):
        bad.write_text(f"radius,value\n0.0,1.0\n{row}\n1.0,0.0\n")
        with pytest.raises(ConfigurationError, match="finite"):
            from_table_csv(bad)


def test_table_csv_rejects_a_row_without_two_columns(tmp_path):
    path = tmp_path / "profile.csv"
    for row in ("0.5,0.5,7.0", "0.5"):
        path.write_text(f"radius,value\n0.0,1.0\n{row}\n1.0,0.0\n")
        with pytest.raises(ConfigurationError, match="malformed table row"):
            from_table_csv(path)


def test_table_csv_accepts_trailing_blank_lines(tmp_path):
    path = tmp_path / "profile.csv"
    for tail in ("\n", "\n\n", "\r\n"):
        path.write_text("radius,value\n0.0,1.0\n1.0,0.0\n" + tail)
        assert from_table_csv(path) == TablePotential((0.0, 1.0), (1.0, 0.0))


def test_scale_identity_and_barrier_case():
    model = BarrierPotential(1.0, 1.0)
    same = scale_potential(model, 1)
    assert same.v0 == 1.0 and same.radius == 1.0
    scaled = scale_potential(model, 10)
    assert scaled.v0 == 100.0
    assert scaled.radius == pytest.approx(0.1)


def test_scale_rejects_zero_and_negative_counts():
    model = BarrierPotential(1.0, 1.0)
    for bad in (0, -1, 2.5):
        with pytest.raises(DomainError):
            scale_potential(model, bad)


def test_scale_composes_exactly(test_potentials):
    radii = np.linspace(0.0, 1.2, 97)
    for model in test_potentials:
        twice = scale_potential(scale_potential(model, 3), 4)
        once = scale_potential(model, 12)
        assert np.array_equal(twice(radii), once(radii))


def test_born_coupling_barrier_analytic():
    # closed form: v0 * (4/3) pi R^3
    model = BarrierPotential(2.5, 0.8)
    exact = 2.5 * (4.0 / 3.0) * np.pi * 0.8**3
    assert born_coupling(model) == pytest.approx(exact, rel=1e-10)


def test_born_coupling_zero_potential():
    assert born_coupling(BarrierPotential(0.0, 1.0)) == 0.0


def test_born_coupling_scaling(test_potentials):
    for model in test_potentials:
        b0 = born_coupling(model)
        for n in (2, 5):
            assert born_coupling(scale_potential(model, n)) == pytest.approx(
                b0 / n, rel=1e-9
            )


def test_born_coupling_1d_barrier():
    # 2 * v0 * R on the line
    assert born_coupling_1d(BarrierPotential(1.5, 0.5)) == pytest.approx(1.5, rel=1e-10)


def test_alpha_barrier_analytic():
    # integral term 4 pi v0 R^2 / 2, sup term v0 R^2
    model = BarrierPotential(3.0, 0.7)
    exact = 3.0 * 0.7**2 * (2.0 * np.pi + 1.0)
    assert alpha_strength(model) == pytest.approx(exact, rel=1e-10)


def test_alpha_zero_potential():
    assert alpha_strength(GaussianPotential(0.0, 1.0)) == 0.0


def test_alpha_scale_invariant(test_potentials):
    for model in test_potentials:
        alpha = alpha_strength(model)
        for n in (3, 10):
            assert alpha_strength(scale_potential(model, n)) == pytest.approx(
                alpha, rel=1e-8
            )


def test_trap_models():
    trap = TrapModel("harmonic", 2.0)
    assert trap.confining
    grid = GridSpec(1, 8, 8.0)  # x = -4, -3, ..., 3
    sampled = trap.sample(grid)[[4, 3, 0]]  # r^2 = 0, 1, 16
    assert np.all(sampled >= 0.0)
    assert sampled[-1] > sampled[1] > sampled[0]
    free = TrapModel("none")
    assert not free.confining
    assert np.all(free.sample(grid) == 0.0)
    with pytest.raises(ConfigurationError):
        TrapModel("box")
    with pytest.raises(ConfigurationError):
        TrapModel("harmonic", -1.0)
    for kind in ("harmonic", "none"):
        with pytest.raises(ConfigurationError, match="finite"):
            TrapModel(kind, float("nan"))
