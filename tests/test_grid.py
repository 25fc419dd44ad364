import numpy as np
import pytest

from nemlab.grid import (
    FieldError,
    Grid1D,
    GridError,
    ScalarField,
    VectorField3,
    gradient,
    integrate,
    laplacian,
    norm,
)


def field(fn, grid):
    return ScalarField(fn(grid.nodes()), grid)


class TestGrid1D:
    def test_spacing_and_nodes(self):
        g = Grid1D(101, 0.0, 2.0)
        assert g.dx == pytest.approx(0.02)
        x = g.nodes()
        assert x[0] == 0.0 and x[-1] == 2.0
        assert np.allclose(np.diff(x), g.dx)

    def test_equality_and_hash_follow_the_fields(self):
        g = Grid1D(11, 0.0, 2.0)
        same = Grid1D(11, 0.0, 2.0)
        assert g == same and hash(g) == hash(same)
        assert g != "not a grid"
        for other in (Grid1D(12, 0.0, 2.0), Grid1D(11, -1.0, 2.0), Grid1D(11, 0.0, 3.0)):
            assert g != other

    def test_too_few_nodes_rejected(self):
        with pytest.raises(GridError):
            Grid1D(4, 0.0, 1.0)

    def test_degenerate_interval_rejected(self):
        with pytest.raises(GridError):
            Grid1D(11, 1.0, 1.0)

    def test_field_length_mismatch_rejected(self):
        g = Grid1D(11, 0.0, 1.0)
        with pytest.raises(FieldError):
            ScalarField(np.zeros(10), g)

    def test_non_finite_rejected(self):
        g = Grid1D(11, 0.0, 1.0)
        vals = np.zeros(11)
        vals[3] = np.nan
        with pytest.raises(FieldError):
            ScalarField(vals, g)
        bad = np.zeros((3, 11))
        bad[1, 2] = np.inf
        with pytest.raises(FieldError):
            VectorField3(bad, g)

    def test_fields_frozen(self):
        g = Grid1D(11, 0.0, 1.0)
        f = ScalarField(np.ones(11), g)
        with pytest.raises(ValueError):
            f.values[0] = 2.0


class TestGradient:
    def test_exact_on_linear(self):
        g = Grid1D(37, -1.0, 3.0)
        f = field(lambda x: 3.0 * x + 1.0, g)
        assert np.allclose(gradient(f).values, 3.0, atol=1e-12)

    def test_constant_gives_zero(self):
        g = Grid1D(21, 0.0, 1.0)
        f = ScalarField(np.full(21, 7.5), g)
        assert np.all(gradient(f).values == 0.0)

    def test_refinement_halves_error_quadratically(self):
        # independent oracle: d/dx sin = cos
        errs = {}
        for n in (101, 201):
            g = Grid1D(n, 0.0, 2.0 * np.pi)
            x = g.nodes()
            errs[n] = np.max(np.abs(gradient(ScalarField(np.sin(x), g)).values - np.cos(x)))
        ratio = errs[101] / errs[201]
        assert 3.2 <= ratio <= 4.8

    def test_vector_field_dispatch(self):
        g = Grid1D(33, 0.0, 1.0)
        x = g.nodes()
        v = VectorField3(np.stack([x, 2 * x, np.ones_like(x)]), g)
        gv = gradient(v)
        assert np.allclose(gv.values[0], 1.0)
        assert np.allclose(gv.values[1], 2.0)
        assert np.allclose(gv.values[2], 0.0, atol=1e-13)

    def test_linearity(self):
        rng = np.random.default_rng(7)
        g = Grid1D(41, 0.0, 1.0)
        f1 = ScalarField(rng.normal(size=41), g)
        f2 = ScalarField(rng.normal(size=41), g)
        a, b = 2.5, -1.25
        combo = ScalarField(a * f1.values + b * f2.values, g)
        lhs = gradient(combo).values
        rhs = a * gradient(f1).values + b * gradient(f2).values
        assert np.allclose(lhs, rhs, rtol=1e-13, atol=1e-11)


class TestLaplacian:
    def test_exact_on_quadratic_interior(self):
        g = Grid1D(25, 0.0, 1.0)
        f = field(lambda x: x**2, g)
        lap = laplacian(f).values
        assert np.allclose(lap[1:-1], 2.0, atol=1e-9)

    def test_constant_gives_zero(self):
        g = Grid1D(25, 0.0, 1.0)
        f = ScalarField(np.full(25, 5.0), g)
        assert np.all(laplacian(f).values == 0.0)

    def test_second_order_on_sine(self):
        # oracle: d2/dx2 sin = -sin; dyadic refinement in max norm
        errs = []
        for n in (101, 201, 401):
            g = Grid1D(n, 0.0, 2.0 * np.pi)
            x = g.nodes()
            errs.append(
                np.max(np.abs(laplacian(ScalarField(np.sin(x), g)).values + np.sin(x)))
            )
        for e0, e1 in zip(errs, errs[1:]):
            order = np.log2(e0 / e1)
            assert 1.8 <= order <= 2.2


class TestIntegrate:
    def test_constant_exact(self):
        g = Grid1D(17, 0.0, 1.0)
        assert integrate(ScalarField(np.ones(17), g)) == pytest.approx(1.0, abs=1e-15)

    def test_sin_squared(self):
        g = Grid1D(401, 0.0, 2.0 * np.pi)
        f = field(lambda x: np.sin(x) ** 2, g)
        assert integrate(f) == pytest.approx(np.pi, abs=1e-6)

    def test_linear_exact(self):
        g = Grid1D(33, 0.0, 2.0)
        f = field(lambda x: x, g)
        assert integrate(f) == pytest.approx(2.0, abs=1e-14)


class TestNorm:
    def test_constant_l2(self):
        g = Grid1D(51, 0.0, 1.0)
        f = ScalarField(np.full(51, 2.0), g)
        assert norm(f, 2) == pytest.approx(2.0, abs=1e-14)

    def test_unit_vector_linf(self):
        g = Grid1D(51, 0.0, 1.0)
        v = np.zeros((3, 51))
        v[0] = 1.0
        assert norm(VectorField3(v, g), np.inf) == 1.0

    def test_identity_l3(self):
        g = Grid1D(2001, 0.0, 1.0)
        f = field(lambda x: x, g)
        assert norm(f, 3) == pytest.approx(0.25 ** (1.0 / 3.0), abs=1e-6)

    def test_unsupported_order_rejected(self):
        g = Grid1D(11, 0.0, 1.0)
        f = ScalarField(np.ones(11), g)
        with pytest.raises(ValueError):
            norm(f, 4)

    def test_monotonicity_bounds(self):
        rng = np.random.default_rng(11)
        g = Grid1D(61, 0.0, 2.5)
        size = g.length
        for _ in range(20):
            f = ScalarField(rng.normal(size=61), g)
            assert norm(f, 2) <= np.sqrt(size) * norm(f, np.inf) + 1e-12
            assert norm(f, 3) <= size ** (1.0 / 3.0) * norm(f, np.inf) + 1e-12
