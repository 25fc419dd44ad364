import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nemlab.constitutive import (
    ConstitutiveError,
    Params,
    System,
    _bregman,
    _power_law,
    bregman_pressure,
    gl_force,
    gl_potential,
)
from nemlab.dynamics import State
from nemlab.functionals import energy_dissipation
from nemlab.grid import Grid1D


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


# each law as the solver takes it, _power_law of an owner's coefficient and
# an exponent, and its formula written out
POWER_LAWS = {
    "P": (lambda p: (p.a, p.gamma), lambda rho, a, g: a * rho**g),
    "Pi": (lambda p: (p.pi_coeff, p.gamma), lambda rho, a, g: a / (g - 1.0) * rho**g),
    "Pi'": (lambda p: (p.pi1_coeff, p.gamma - 1.0),
            lambda rho, a, g: a * g / (g - 1.0) * rho ** (g - 1.0)),
    "P'": (lambda p: (p.dp_coeff, p.gamma - 1.0), lambda rho, a, g: a * g * rho ** (g - 1.0)),
    "Pi''": (lambda p: (p.dp_coeff, p.gamma - 2.0), lambda rho, a, g: a * g * rho ** (g - 2.0)),
}

_DENSITY_ENTRIES = st.one_of(
    st.sampled_from([np.nan, 0.0, -0.0, np.inf, -np.inf, -1e-300, -1.0, 1.0]),
    st.floats(allow_nan=True, allow_infinity=True),
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(law=st.sampled_from(list(POWER_LAWS)), entries=st.lists(_DENSITY_ENTRIES, max_size=6),
       a=st.floats(0.1, 10.0), gamma=st.floats(1.01, 3.0))
def test_power_laws_give_their_formulas_bits(law, entries, a, gamma):
    # NaN, +-0.0 and +-inf entries and empty arrays included
    rho = np.array(entries, dtype=float)
    p = Params(a=a, gamma=gamma)
    owner, formula = POWER_LAWS[law]
    with np.errstate(all="ignore"):  # 0 to a negative power, inf overflow
        out = _power_law(rho, *owner(p))
        expected = formula(rho, a, gamma)
    assert out.shape == rho.shape
    assert out.tobytes() == expected.tobytes()


@settings(max_examples=100, deadline=None, derandomize=True)
@given(entries=st.lists(_DENSITY_ENTRIES, max_size=6), gamma=st.floats(1.01, 3.0))
def test_density_check_raises_iff_an_entry_is_negative(entries, gamma):
    # the candidate density of the Bregman gap; the energies and the
    # certificate row take the same check
    rho = np.array(entries, dtype=float)
    with np.errstate(all="ignore"):
        if any(x < 0 for x in entries):
            with pytest.raises(ConstitutiveError, match="density must be nonnegative"):
                bregman_pressure(rho, np.ones_like(rho), Params(gamma=gamma))
        else:
            assert bregman_pressure(rho, np.ones_like(rho), Params(gamma=gamma)).shape == rho.shape


class TestPressurePotential:
    def test_quadratic_law(self):
        p = Params(a=1.0, gamma=2.0)
        assert _power_law(np.array([3.0, 0.0]), p.pi_coeff, p.gamma).tolist() == [9.0, 0.0]

    def test_negative_entry_rejected(self):
        rho = np.array([1.0, -1e-300, 2.0, 1.0, 1.0])
        with pytest.raises(ConstitutiveError, match="density must be nonnegative"):
            bregman_pressure(rho, np.ones(5), Params())
        state = State(Grid1D(5, 0.0, 1.0), rho, np.zeros(5), np.ones((3, 5)))
        with pytest.raises(ConstitutiveError, match="density must be nonnegative"):
            energy_dissipation(state, Params())

    def test_nan_density_passes_the_sign_check(self):
        out = bregman_pressure(np.array([1.0, np.nan]), np.ones(2), Params())
        assert out[0] == 0.0 and np.isnan(out[1])

    def test_derivative_identities_random(self):
        # Pi'(rho) rho - Pi(rho) = P(rho); Pi'' = dp_coeff rho^(gamma-2) is
        # the derivative of Pi', and rho Pi'' that of P
        rng = np.random.default_rng(3)
        for _ in range(200):
            p = Params(a=rng.uniform(0.1, 5.0), gamma=rng.uniform(1.01, 3.0))
            g = p.gamma
            rho = rng.uniform(0.01, 10.0, 8)
            lhs = _power_law(rho, p.pi1_coeff, g - 1.0) * rho - _power_law(rho, p.pi_coeff, g)
            assert lhs == pytest.approx(_power_law(rho, p.a, g), rel=1e-12)
            pi2 = _power_law(rho, p.dp_coeff, g - 2.0)
            assert pi2 == pytest.approx(_power_law(rho, (g - 1.0) * p.pi1_coeff, g - 2.0),
                                        rel=1e-12)
            assert rho * pi2 == pytest.approx(_power_law(rho, g * p.a, g - 1.0), rel=1e-12)


class TestGinzburgLandau:
    def test_unit_sphere_is_ground_state(self):
        p = Params(sigma0=1.0)
        d = np.array([[0.6], [0.8], [0.0]])
        assert gl_potential(d, p) == pytest.approx(0.0, abs=1e-15)
        assert np.allclose(gl_force(d, p.sigma0**2), 0.0, atol=1e-15)

    def test_origin_value(self):
        assert gl_potential(np.zeros((3, 1)), Params(sigma0=1.0)) == pytest.approx(0.25)

    def test_stretched_value(self):
        p = Params(sigma0=1.0)
        d = np.array([[2.0], [0.0], [0.0]])
        assert gl_potential(d, p) == pytest.approx(2.25)
        assert np.allclose(gl_force(d, p.sigma0**2), [[6.0], [0.0], [0.0]])

    def test_potential_nonnegative(self):
        rng = np.random.default_rng(5)
        p = Params(sigma0=0.7)
        d = rng.uniform(-2, 2, size=(3, 500))
        assert np.all(gl_potential(d, p) >= 0.0)

    def test_force_outward_beyond_unit_ball(self):
        rng = np.random.default_rng(9)
        p = Params(sigma0=1.3)
        d = rng.normal(size=(3, 200))
        d *= rng.uniform(1.0, 3.0, 200) / np.linalg.norm(d, axis=0)
        assert np.all((gl_force(d, p.sigma0**2) * d).sum(axis=0) >= 0.0)

    def test_force_is_gradient_of_potential(self):
        # central finite differences, h = 1e-5
        rng = np.random.default_rng(17)
        h = 1e-5
        for _ in range(10):
            p = Params(sigma0=rng.uniform(0.5, 2.0))
            d = rng.normal(size=(3, 10))
            d *= rng.uniform(0.0, 2.0, 10) / np.maximum(np.linalg.norm(d, axis=0), 1e-12)
            fd = np.array([(gl_potential(d + e, p) - gl_potential(d - e, p)) / (2 * h)
                           for e in h * np.eye(3)[:, :, None]])
            assert np.max(np.abs(gl_force(d, p.sigma0**2) - fd)) <= 1e-6


class TestRelativePressureTerm:
    def test_zero_at_equal_arguments(self):
        rho = np.array([1.3, 0.2])
        assert np.all(bregman_pressure(rho, rho, Params(gamma=1.9)) == 0.0)

    def test_positivity_random(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            p = Params(a=rng.uniform(0.1, 3.0), gamma=rng.uniform(1.01, 3.0))
            val = bregman_pressure(rng.uniform(0.0, 5.0, 10), rng.uniform(0.01, 5.0, 10), p)
            assert val.min() >= -1e-14

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

    def test_known_values(self):
        # Pi(2) - Pi'(1)(2-1) - Pi(1) = 4 - 2 - 1 with a=1, gamma=2
        p = Params(a=1.0, gamma=2.0)
        rho = np.array([2.0, 1.0, 0.5])
        out = bregman_pressure(rho, np.ones(3), p)
        assert out[1] == 0.0 and out[0] == pytest.approx(1.0)

    def test_degenerate_reference_rejected(self):
        with pytest.raises(ConstitutiveError):
            bregman_pressure(np.ones(1), np.zeros(1), Params())
        with pytest.raises(ConstitutiveError, match="strictly positive"):
            bregman_pressure(np.ones(3), np.array([1.0, 0.0, 1.0]), Params())
