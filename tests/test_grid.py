import numpy as np
import pytest

from nemlab.grid import Grid1D, GridError, gradient_array, laplacian_array, trapezoid_array


def field(fn, grid):
    return fn(grid.nodes())


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

    @pytest.mark.parametrize("x_min, x_max", [(-np.inf, 1.0), (0.0, np.inf), (np.nan, 1.0)])
    def test_non_finite_endpoint_rejected(self, x_min, x_max):
        with pytest.raises(GridError, match="^grid endpoints must be finite$"):
            Grid1D(11, x_min, x_max)

    def test_degenerate_interval_rejected(self):
        with pytest.raises(GridError):
            Grid1D(11, 1.0, 1.0)

    def test_overflowing_length_rejected(self):
        # both endpoints finite, their difference is not
        with pytest.raises(GridError, match=r"domain length of \[-1e\+308, 1e\+308\] "
                                             r"is not finite"):
            Grid1D(65, -1e308, 1e308)

    @pytest.mark.parametrize("n, x_max", [(65, 1e-200), (5, 1e-154), (5, 5e-324)])
    def test_spacing_with_non_finite_inverse_square_rejected(self, n, x_max):
        # dx*dx underflows to 0 (or to a subnormal whose inverse overflows)
        with pytest.raises(GridError, match=r"1/dx\^2 is not finite"):
            Grid1D(n, 0.0, x_max)

    @pytest.mark.parametrize("n, x_min, x_max", [(33, -1e300, 1e300), (5, 0.0, 1e155)])
    def test_spacing_with_non_finite_square_rejected(self, n, x_min, x_max):
        # the length is finite, dx*dx overflows (and 1/inf = 0 is finite)
        with pytest.raises(GridError, match=r"is too large: dx\^2 is not finite"):
            Grid1D(n, x_min, x_max)

    def test_large_usable_spacing_accepted(self):
        g = Grid1D(5, 0.0, 1e154)
        assert np.isfinite(g.dx * g.dx) and 1.0 / (g.dx * g.dx) > 0.0

    def test_tiny_usable_spacing_accepted(self):
        g = Grid1D(5, 0.0, 1e-150)
        assert np.isfinite(1.0 / (g.dx * g.dx))


class TestGradient:
    def test_exact_on_linear(self):
        g = Grid1D(37, -1.0, 3.0)
        f = field(lambda x: 3.0 * x + 1.0, g)
        assert np.allclose(gradient_array(f, g.dx), 3.0, atol=1e-12)

    def test_constant_gives_zero(self):
        g = Grid1D(21, 0.0, 1.0)
        assert np.all(gradient_array(np.full(21, 7.5), g.dx) == 0.0)

    def test_refinement_halves_error_quadratically(self):
        # independent oracle: d/dx sin = cos
        errs = {}
        for n in (101, 201):
            g = Grid1D(n, 0.0, 2.0 * np.pi)
            x = g.nodes()
            errs[n] = np.max(np.abs(gradient_array(np.sin(x), g.dx) - np.cos(x)))
        ratio = errs[101] / errs[201]
        assert 3.2 <= ratio <= 4.8

    def test_vector_field_dispatch(self):
        g = Grid1D(33, 0.0, 1.0)
        x = g.nodes()
        gv = gradient_array(np.stack([x, 2 * x, np.ones_like(x)]), g.dx)
        assert np.allclose(gv[0], 1.0)
        assert np.allclose(gv[1], 2.0)
        assert np.allclose(gv[2], 0.0, atol=1e-13)

    def test_linearity(self):
        rng = np.random.default_rng(7)
        g = Grid1D(41, 0.0, 1.0)
        f1 = rng.normal(size=41)
        f2 = rng.normal(size=41)
        a, b = 2.5, -1.25
        lhs = gradient_array(a * f1 + b * f2, g.dx)
        rhs = a * gradient_array(f1, g.dx) + b * gradient_array(f2, g.dx)
        assert np.allclose(lhs, rhs, rtol=1e-13, atol=1e-11)


class TestLaplacian:
    def test_exact_on_quadratic_interior(self):
        g = Grid1D(25, 0.0, 1.0)
        f = field(lambda x: x**2, g)
        lap = laplacian_array(f, g.dx)
        assert np.allclose(lap[1:-1], 2.0, atol=1e-9)

    def test_constant_gives_zero(self):
        g = Grid1D(25, 0.0, 1.0)
        assert np.all(laplacian_array(np.full(25, 5.0), g.dx) == 0.0)

    def test_second_order_on_sine(self):
        # oracle: d2/dx2 sin = -sin; dyadic refinement in max norm
        errs = []
        for n in (101, 201, 401):
            g = Grid1D(n, 0.0, 2.0 * np.pi)
            x = g.nodes()
            errs.append(
                np.max(np.abs(laplacian_array(np.sin(x), g.dx) + np.sin(x)))
            )
        for e0, e1 in zip(errs, errs[1:]):
            order = np.log2(e0 / e1)
            assert 1.8 <= order <= 2.2


@pytest.mark.parametrize("op", [gradient_array, laplacian_array])
@pytest.mark.parametrize("n", [5, 6, 33])
def test_each_row_of_a_stack_is_its_own_result_bit_for_bit(op, n):
    # the central stencil runs over the stacked rows laid end to end; the
    # endpoint stencils overwrite what it forms across two rows
    rng = np.random.default_rng(n)
    stack = rng.normal(size=(2, 3, n)) * 10.0 ** rng.integers(-3, 4, size=(2, 3, 1))
    dx = 1.0 / (n - 1)
    for values in (stack, stack[:, 1:], stack.transpose(1, 0, 2)):
        expected = [op(row, dx) for row in values.reshape(-1, n)]
        assert op(values, dx).tobytes() == np.array(expected).tobytes()


class TestIntegrate:
    def test_constant_exact(self):
        g = Grid1D(17, 0.0, 1.0)
        assert trapezoid_array(np.ones(17), g.dx) == pytest.approx(1.0, abs=1e-15)

    def test_sin_squared(self):
        g = Grid1D(401, 0.0, 2.0 * np.pi)
        f = field(lambda x: np.sin(x) ** 2, g)
        assert trapezoid_array(f, g.dx) == pytest.approx(np.pi, abs=1e-6)

    def test_linear_exact(self):
        g = Grid1D(33, 0.0, 2.0)
        f = field(lambda x: x, g)
        assert trapezoid_array(f, g.dx) == pytest.approx(2.0, abs=1e-14)
