"""The radial layer's numpy quadrature, interpolants and maximizer against
scipy's adaptive `quad`, `CubicSpline`, `PchipInterpolator` and bounded
`minimize_scalar`, which serve here only as references."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, optimize
from scipy.interpolate import CubicSpline, PchipInterpolator

from gplab.potential import (
    BarrierPotential,
    GaussianPotential,
    TablePotential,
    alpha_strength,
    born_coupling,
    born_coupling_1d,
)
from gplab.scattering import coupling_sigma, solve_zero_energy

from conftest import scaled_coupling

BASE_MODELS = {
    "barrier": BarrierPotential(2.0, 0.8),
    "gaussian": GaussianPotential(2.0, 0.5),
    "gaussian-cutoff": GaussianPotential(3.0, 0.6, 2.0),
    "table": TablePotential((0.1, 0.4, 0.45, 1.3, 1.7, 2.0), (3.0, 0.2, 1.5, 0.0, 0.4, 0.0)),
}


def _quad(integrand, upper):
    result, _ = integrate.quad(integrand, 0.0, upper, epsabs=1e-14, epsrel=1e-12, limit=200)
    return result


def _sup_r2_v(model):
    mesh = np.linspace(0.0, model.cutoff_radius, 4097)
    samples = mesh**2 * model(mesh)
    best = int(np.argmax(samples))
    refined = optimize.minimize_scalar(
        lambda r: -(r**2) * model(r),
        bounds=(mesh[max(best - 1, 0)], mesh[min(best + 1, mesh.size - 1)]),
        method="bounded",
        options={"xatol": 1e-13 * max(model.cutoff_radius, 1.0)},
    )
    return max(samples[best], -refined.fun)


def _spline_profile(solution):
    """f inside the support by a not-a-knot cubic spline through the mesh values."""
    inside = solution.radii <= solution.potential.cutoff_radius
    return CubicSpline(solution.radii[inside], solution.f_values[inside])


@pytest.fixture(
    scope="module",
    params=[(name, n, family) for name in BASE_MODELS for n in (1, 4, 16)
            for family in ("scaled", "scaled_analog1d")],
    ids=lambda p: f"{p[0]}-n{p[1]}-{p[2]}",
)
def model(request):
    name, n, family = request.param
    return getattr(BASE_MODELS[name], family)(n)


def test_born_couplings_and_alpha_match_adaptive_quadrature(model):
    cutoff = model.cutoff_radius
    b0 = 4.0 * np.pi * _quad(lambda r: model(r) * r**2, cutoff)
    assert born_coupling(model) == pytest.approx(b0, rel=1e-12, abs=0.0)
    assert born_coupling_1d(model) == pytest.approx(2.0 * _quad(model, cutoff), rel=1e-12, abs=0.0)
    alpha = 4.0 * np.pi * _quad(lambda r: model(r) * r, cutoff) + _sup_r2_v(model)
    assert alpha_strength(model) == pytest.approx(alpha, rel=1e-12, abs=0.0)


def test_profile_and_coupling_match_spline_and_adaptive_quadrature(model):
    solution = solve_zero_energy(model)
    spline = _spline_profile(solution)
    cutoff = model.cutoff_radius
    sigma = 4.0 * np.pi * _quad(lambda r: model(r) * spline(r) * r * r, cutoff)
    coupling = coupling_sigma(solution)
    assert coupling == pytest.approx(sigma, rel=1e-12, abs=0.0)
    assert scaled_coupling(solution, 3) == pytest.approx(coupling, rel=1e-8, abs=0.0)
    radii = np.random.default_rng(7).uniform(0.0, cutoff, 500)
    assert np.max(np.abs(solution.f(radii) - spline(radii))) < 1e-10


@pytest.mark.parametrize("model", [GaussianPotential(20.0, 0.5), BarrierPotential(20.0, 0.8)])
def test_coupling_integrates_the_profile_interpolant_exactly(model):
    """The coupling's panels end at the mesh nodes, where f's cubic pieces
    join: on a coarse solve it matches a reference on 32 times finer panels."""
    solution = solve_zero_energy(model, tol=1e-2, mesh_points=64)
    cutoff = model.cutoff_radius
    edges = np.union1d(solution.radii[solution.radii <= cutoff], np.linspace(0.0, cutoff, 4097))
    x, w = np.polynomial.legendre.leggauss(12)
    half = 0.5 * np.diff(edges)[:, None]
    r = 0.5 * (edges[:-1] + edges[1:])[:, None] + half * x
    reference = 4.0 * np.pi * np.sum(half * w * model(r) * solution.f(r) * r * r)
    assert coupling_sigma(solution) == pytest.approx(reference, rel=2e-15, abs=0.0)


@pytest.mark.parametrize("n", [1, 4, 16])
@pytest.mark.parametrize("family", ["scaled", "scaled_analog1d"])
def test_table_interpolant_matches_pchip(family, n):
    model = getattr(BASE_MODELS["table"], family)(n)
    knots = np.asarray(model.radii)
    reference = PchipInterpolator(knots, model.values)
    probe = np.random.default_rng(3).uniform(0.0, model.cutoff_radius, 2000)
    expected = model.amplitude * reference(np.clip(probe, knots[0], None))
    values = model(probe)
    assert np.max(np.abs(values - expected)) <= 1e-13 * np.max(np.abs(expected))
    assert np.all(values >= 0.0)


samples = st.one_of(st.just(0.0), st.floats(0.0, 10.0, allow_subnormal=False))


@settings(max_examples=60, deadline=None)
@given(
    gaps=st.lists(st.floats(0.01, 1.0), min_size=2, max_size=12),
    values=st.lists(samples, min_size=13, max_size=13),
    start=st.floats(0.0, 0.5),
)
def test_random_tables_match_pchip_and_stay_nonnegative(gaps, values, start):
    knots = start + np.concatenate([[0.0], np.cumsum(gaps)])
    table = np.array(values[: knots.size])
    table[-1] = 0.0
    model = TablePotential(tuple(knots), tuple(table))
    probe = np.concatenate([np.linspace(0.0, knots[-1], 4001), knots])
    values_new = model(probe)
    assert np.all(values_new >= 0.0)
    expected = PchipInterpolator(knots, table)(np.clip(probe, knots[0], None))
    assert np.max(np.abs(values_new - expected)) <= 1e-13 * max(np.max(table), 1e-300)
