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
    "radii, values, amplitude",
    [
        ((0.0, 0.5, 0.5), (1.0, 0.5, 0.0), 1.0),  # not strictly increasing
        ((0.0, 1.0), (1.0, 0.5), 1.0),  # does not end at zero
        ((0.0, 1.0), (-1.0, 0.0), 1.0),  # negative sample
        ((0.0, 1.0), (1.0, 0.0), float("nan")),
        ((0.0, 1.0), (1.0, 0.0), float("inf")),
        ((0.0, 1.0), (1.0, 0.0), -1.0),
    ],
)
def test_table_invariants_rejected(radii, values, amplitude):
    with pytest.raises(ConfigurationError):
        TablePotential(radii, values, amplitude)


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
    # both family maps of every model are its constructor formula, bit for bit
    barrier = BarrierPotential(2.7, 0.37)
    gaussian = GaussianPotential(1.3, 0.45)
    table = TablePotential((0.0, 0.3, 0.71, 1.3), (2.0, 1.1, 0.4, 0.0), 1.7)
    for model in (barrier, gaussian, table):  # n = 1 is the model itself
        assert model.scaled(1) == model == model.scaled_analog1d(1)
    for n in [*range(1, 17), 100, 4096, 10**6, 2**31 - 1]:
        assert scale_potential(barrier, n) == BarrierPotential(2.7 * n * n, 0.37 / n)
        assert barrier.scaled_analog1d(n) == BarrierPotential(2.7, 0.37 / n)
        assert gaussian.scaled(n) == GaussianPotential(1.3 * n * n, 0.45 / n, 6.0 * 0.45 / n)
        assert gaussian.scaled_analog1d(n) == GaussianPotential(1.3, 0.45 / n, 6.0 * 0.45 / n)
        radii = tuple(r / n for r in table.radii)
        assert table.scaled(n) == TablePotential(radii, table.values, 1.7 * n * n)
        assert table.scaled_analog1d(n) == TablePotential(radii, table.values, 1.7)


def test_scale_rejects_zero_and_negative_counts():
    models = [
        BarrierPotential(1.0, 1.0),
        GaussianPotential(1.0, 0.5),
        TablePotential((0.0, 1.0), (1.0, 0.0)),
    ]
    for model in models:
        for family in (model.scaled, model.scaled_analog1d, lambda n: scale_potential(model, n)):
            for bad in (0, -1, 2.5):
                with pytest.raises(DomainError):
                    family(bad)


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
    trap = TrapModel(2.0)
    grid = GridSpec(1, 8, 8.0)  # x = -4, -3, ..., 3
    assert np.array_equal(trap.sample(grid)[[4, 3, 0]], [0.0, 4.0, 64.0])  # omega^2 r^2
    for omega in (-1.0, 0.0, float("nan"), float("inf")):
        with pytest.raises(ConfigurationError, match="positive and finite"):
            TrapModel(omega)
