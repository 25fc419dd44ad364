import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nemlab.constitutive import (
    ConstitutiveError,
    Params,
    System,
    _bregman,
    bregman_pressure,
    gl_force,
    gl_potential,
    pressure,
    pressure_derivative,
    pressure_potential,
    pressure_potential_derivative,
    pressure_potential_second_derivative,
)


class TestParams:
    def test_defaults(self):
        p = Params()
        assert p.mu == p.lam == p.theta == 1.0
        assert p.system is System.GL

    @pytest.mark.parametrize("kw", [
        {"a": 0.0}, {"a": -1.0}, {"gamma": 1.0}, {"gamma": 0.9},
        {"sigma0": 0.0}, {"mu": -1.0}, {"lam": 0.0}, {"theta": 0.0},
    ])
    def test_invalid_rejected(self, kw):
        with pytest.raises(ConstitutiveError):
            Params(**kw)

    def test_system_from_name(self):
        assert System.from_name("GL") is System.GL
        assert System.from_name("sphere") is System.SPHERE
        with pytest.raises(ValueError):
            System.from_name("cubic")


class TestPressure:
    def test_quadratic_law(self):
        assert pressure(3.0, Params(a=1.0, gamma=2.0)) == pytest.approx(9.0)

    def test_vacuum(self):
        assert pressure(0.0, Params(a=4.2, gamma=1.3)) == 0.0

    def test_fractional_exponent(self):
        assert pressure(2.0, Params(a=1.0, gamma=1.4)) == pytest.approx(2.0**1.4)

    def test_negative_density_rejected(self):
        with pytest.raises(ConstitutiveError):
            pressure(-0.1, Params())

    def test_negative_entry_rejected_in_arrays(self):
        with pytest.raises(ConstitutiveError, match="density must be nonnegative"):
            pressure(np.array([1.0, -1e-300, 2.0]), Params())

    def test_nan_density_passes_the_sign_check(self):
        assert np.isnan(pressure(float("nan"), Params()))
        out = pressure(np.array([1.0, np.nan]), Params())
        assert out[0] == 1.0 and np.isnan(out[1])
        assert pressure(np.array([]), Params()).shape == (0,)


# each power law and its formula written out
POWER_LAWS = {
    pressure: lambda rho, a, g: a * rho**g,
    pressure_derivative: lambda rho, a, g: a * g * rho ** (g - 1.0),
    pressure_potential: lambda rho, a, g: a / (g - 1.0) * rho**g,
    pressure_potential_derivative: lambda rho, a, g: a * g / (g - 1.0) * rho ** (g - 1.0),
    pressure_potential_second_derivative: lambda rho, a, g: a * g * rho ** (g - 2.0),
}

_DENSITY_ENTRIES = st.one_of(
    st.sampled_from([np.nan, 0.0, -0.0, np.inf, -np.inf, -1e-300, -1.0, 1.0]),
    st.floats(allow_nan=True, allow_infinity=True),
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(law=st.sampled_from(list(POWER_LAWS)), entries=st.lists(_DENSITY_ENTRIES, max_size=6),
       shape=st.sampled_from(["array", "0-d", "float"]), a=st.floats(0.1, 10.0),
       gamma=st.floats(1.01, 3.0))
def test_power_laws_raise_iff_an_entry_is_negative(law, entries, shape, a, gamma):
    # NaN, +-0.0 and +-inf entries, empty arrays and 0-d scalars: the law
    # raises iff some entry is < 0 and otherwise gives its formula's bits
    if shape != "array":
        entries = entries[:1] or [0.0]
    rho = np.array(entries, dtype=float)
    arg = rho if shape == "array" else rho.reshape(()) if shape == "0-d" else entries[0]
    p = Params(a=a, gamma=gamma)
    with np.errstate(all="ignore"):  # 0 to a negative power, inf overflow
        if any(x < 0 for x in entries):
            with pytest.raises(ConstitutiveError, match="density must be nonnegative"):
                law(arg, p)
            return
        out = law(arg, p)
        expected = POWER_LAWS[law](np.asarray(arg, dtype=float), a, gamma)
    if shape == "array":
        assert isinstance(out, np.ndarray) and out.shape == rho.shape
    else:
        assert type(out) is float
    assert np.asarray(out).tobytes() == np.asarray(expected, dtype=float).tobytes()


class TestPressurePotential:
    def test_quadratic_law(self):
        assert pressure_potential(3.0, Params(a=1.0, gamma=2.0)) == pytest.approx(9.0)

    def test_vacuum(self):
        assert pressure_potential(0.0, Params()) == 0.0

    def test_derivative_identity(self):
        # Pi'(rho) rho - Pi(rho) = P(rho)
        p = Params(a=2.0, gamma=1.4)
        rho = 1.7
        lhs = pressure_potential_derivative(rho, p) * rho - pressure_potential(rho, p)
        assert lhs == pytest.approx(pressure(rho, p), rel=1e-12)

    def test_derivative_identity_random(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            p = Params(a=rng.uniform(0.1, 5.0), gamma=rng.uniform(1.01, 3.0))
            rho = rng.uniform(0.01, 10.0)
            lhs = pressure_potential_derivative(rho, p) * rho - pressure_potential(rho, p)
            assert lhs == pytest.approx(pressure(rho, p), rel=1e-12)


class TestGinzburgLandau:
    def test_unit_sphere_is_ground_state(self):
        p = Params(sigma0=1.0)
        d = np.array([0.6, 0.8, 0.0])
        assert gl_potential(d, p) == pytest.approx(0.0, abs=1e-15)
        assert np.allclose(gl_force(d, p), 0.0, atol=1e-15)

    def test_origin_value(self):
        assert gl_potential(np.zeros(3), Params(sigma0=1.0)) == pytest.approx(0.25)

    def test_stretched_value(self):
        p = Params(sigma0=1.0)
        d = np.array([2.0, 0.0, 0.0])
        assert gl_potential(d, p) == pytest.approx(2.25)
        assert np.allclose(gl_force(d, p), [6.0, 0.0, 0.0])

    def test_potential_nonnegative(self):
        rng = np.random.default_rng(5)
        p = Params(sigma0=0.7)
        d = rng.uniform(-2, 2, size=(3, 500))
        assert np.all(gl_potential(d, p) >= 0.0)

    def test_force_outward_beyond_unit_ball(self):
        rng = np.random.default_rng(9)
        p = Params(sigma0=1.3)
        for _ in range(200):
            d = rng.normal(size=3)
            d *= rng.uniform(1.0, 3.0) / np.linalg.norm(d)
            assert np.dot(gl_force(d, p), d) >= 0.0

    def test_force_is_gradient_of_potential(self):
        # central finite differences, h = 1e-5
        rng = np.random.default_rng(17)
        h = 1e-5
        for _ in range(100):
            p = Params(sigma0=rng.uniform(0.5, 2.0))
            d = rng.normal(size=3)
            d *= rng.uniform(0.0, 2.0) / max(np.linalg.norm(d), 1e-12)
            fd = np.zeros(3)
            for i in range(3):
                ei = np.zeros(3)
                ei[i] = h
                fd[i] = (gl_potential(d + ei, p) - gl_potential(d - ei, p)) / (2 * h)
            assert np.max(np.abs(gl_force(d, p) - fd)) <= 1e-6


class TestRelativePressureTerm:
    def test_zero_at_equal_arguments(self):
        assert bregman_pressure(1.3, 1.3, Params(gamma=1.9)) == 0.0

    def test_known_value(self):
        # Pi(2) - Pi'(1)(2-1) - Pi(1) = 4 - 2 - 1 with a=1, gamma=2
        assert bregman_pressure(2.0, 1.0, Params(a=1.0, gamma=2.0)) == pytest.approx(1.0)

    def test_positivity_random(self):
        rng = np.random.default_rng(23)
        for _ in range(2000):
            p = Params(a=rng.uniform(0.1, 3.0), gamma=rng.uniform(1.01, 3.0))
            val = bregman_pressure(
                rng.uniform(0.0, 5.0), rng.uniform(0.01, 5.0), p
            )
            assert val >= -1e-14

    @pytest.mark.parametrize("gamma", [1.001, 1.0001])
    def test_round_off_tolerance_scales_with_the_terms(self, gamma):
        # Pi = a/(gamma-1) rho^gamma is about 1e3 to 1e4 here: the gap's
        # cancellation error exceeds an absolute 1e-14 and is still clamped
        rho = 1.0 + 1e-6 * np.sin(np.arange(100.0))
        assert bregman_pressure(rho, np.ones(100), Params(gamma=gamma)).min() == 0.0

    @pytest.mark.parametrize("a", [1.0, 1e6])
    def test_off_derivative_raises(self, a):
        # Pi'(rho~) off by a relative 1e-6 (a = 1, gamma = 2, rho~ = 1): the
        # computed gap is -1.9e-13 a, beyond the scaled tolerance of 2e-14 a
        rho, rho_t = np.array([1.0, 1.0 + 1e-7]), np.ones(2)
        with pytest.raises(ConstitutiveError, match="negative beyond round-off"):
            _bregman(a * rho**2, 2.0 * a * (1.0 + 1e-6) * rho_t, a * rho_t**2, rho, rho_t)

    def test_vectorized(self):
        p = Params(a=1.0, gamma=2.0)
        rho = np.array([2.0, 1.0, 0.5])
        out = bregman_pressure(rho, np.ones(3), p)
        assert out[1] == 0.0 and out[0] == pytest.approx(1.0)

    def test_degenerate_reference_rejected(self):
        with pytest.raises(ConstitutiveError):
            bregman_pressure(1.0, 0.0, Params())
        with pytest.raises(ConstitutiveError, match="strictly positive"):
            bregman_pressure(np.ones(3), np.array([1.0, 0.0, 1.0]), Params())
