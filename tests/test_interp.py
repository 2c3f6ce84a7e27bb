import numpy as np
import pytest

from lamelab._interp import _bspline_weights, interp_periodic, spline_prefilter
from lamelab.fields import _mode_list, random_band_field
from lamelab.grid import Grid

from test_fields import band_field_reference


def eval_band_field(kmin, kmax, seed, extent, pts, peak):
    """Evaluate the continuum band field at arbitrary points (the oracle)."""
    rng = np.random.default_rng(seed)
    out = np.zeros(pts.shape[1])
    for k in _mode_list(2, kmin, kmax):
        arg = 2 * np.pi / extent * (k[0] * pts[0] + k[1] * pts[1])
        a, b = rng.normal(size=2)
        out += a * np.cos(arg) + b * np.sin(arg)
    return out / peak


@pytest.fixture
def query_points():
    rng = np.random.default_rng(1)
    return rng.uniform(-8.0, 8.0, size=(2, 4000))


class TestAccuracy:
    def test_reproduces_nodal_values(self):
        grid = Grid(2, 32, 16.0)
        u = random_band_field(grid, 1, 4, seed=0)
        vals = interp_periodic(u, grid.coords, grid.extent)
        assert np.max(np.abs(vals - u)) < 1e-12

    def test_fourth_order_convergence(self, query_points):
        errs = []
        for n in (64, 128):
            grid = Grid(2, n, 16.0)
            u = random_band_field(grid, 1, 4, seed=0)
            raw = band_field_reference(grid, 1, 4, 0, None)
            exact = eval_band_field(1, 4, 0, 16.0, query_points, np.max(np.abs(raw)))
            errs.append(np.max(np.abs(interp_periodic(u, query_points, 16.0) - exact)))
        assert errs[0] / errs[1] == pytest.approx(16.0, rel=0.4)

    def test_periodic_wrap(self):
        grid = Grid(2, 32, 16.0)
        u = random_band_field(grid, 1, 4, seed=2)
        pts = np.array([[7.9, -8.1], [0.3, 0.3]])  # same physical point
        vals = interp_periodic(u, pts, grid.extent)
        assert vals[0] == pytest.approx(vals[1], abs=1e-12)

    def test_reproduces_nodal_values_3d(self):
        grid = Grid(3, 16, 8.0)
        u = random_band_field(grid, 1, 3, seed=0)
        vals = interp_periodic(u, grid.coords, grid.extent)
        assert np.max(np.abs(vals - u)) < 1e-12

    def test_periodic_wrap_3d(self):
        grid = Grid(3, 16, 8.0)
        u = random_band_field(grid, 1, 3, seed=2)
        # one physical point, shifted by a whole period along one axis, then along all three
        pts = np.array([[3.9, -4.1, -4.1], [0.3, 0.3, 8.3], [-1.7, -1.7, 6.3]])
        vals = interp_periodic(u, pts, grid.extent)
        assert vals[1] == pytest.approx(vals[0], abs=1e-12)
        assert vals[2] == pytest.approx(vals[0], abs=1e-12)


def fancy_index_interp(values, coords, extent):
    """Per-component form of interp_periodic: a fancy-index gather and one
    einsum per component, stacked. The bitwise reference of the shared gather."""
    dim = coords.shape[0]
    coeffs = spline_prefilter(values, dim)
    grid_shape = coeffs.shape[coeffs.ndim - dim:]
    n = grid_shape[0]
    weights, index = [], []
    for a in range(dim):
        frac = (coords[a].ravel() + 0.5 * extent) / (extent / n)
        base = np.floor(frac).astype(np.int64)
        weights.append(_bspline_weights(frac - base))
        idx = np.stack([(base - 1 + k) % n for k in range(4)])
        index.append(idx.reshape((1,) * a + (4,) + (1,) * (dim - 1 - a) + idx.shape[1:]))
    letters = "abc"[:dim]
    spec = ",".join(f"{c}m" for c in letters) + f",{letters}m->m"
    out = np.stack([np.einsum(spec, *weights, c[tuple(index)]) for c in coeffs.reshape((-1,) + grid_shape)])
    return out.reshape(coeffs.shape[: coeffs.ndim - dim] + coords.shape[1:])


class TestComponents:
    @pytest.mark.parametrize("lead", [(), (2,), (2, 2)])
    @pytest.mark.parametrize("dim, n", [(2, 32), (3, 16)])
    def test_matches_fancy_index_gather(self, dim, n, lead):
        rng = np.random.default_rng(8)
        values = rng.standard_normal(lead + (n,) * dim)
        pts = rng.uniform(-12.0, 12.0, size=(dim, 3, 50))
        assert np.array_equal(interp_periodic(values, pts, 8.0), fancy_index_interp(values, pts, 8.0))

    @pytest.mark.parametrize("dim, n", [(2, 32), (3, 16)])
    def test_prefiltered_stack_keeps_each_field(self, dim, n):
        # the Eulerian step's stack [u, rho, div u]: its leading rows are u's own coefficients
        rng = np.random.default_rng(9)
        u, rho, div = rng.standard_normal((dim,) + (n,) * dim), rng.random((n,) * dim), rng.standard_normal((n,) * dim)
        coeffs = spline_prefilter(np.concatenate([u, rho[None], div[None]]), dim)
        assert np.array_equal(coeffs[:dim], spline_prefilter(u, dim))
        assert np.array_equal(coeffs[dim], spline_prefilter(rho, dim))
        assert np.array_equal(coeffs[dim + 1], spline_prefilter(div, dim))

    @pytest.mark.parametrize("dim", [2, 3])
    def test_matches_scalar_calls(self, dim):
        # leading axes share one stencil; each component equals its own scalar call bitwise
        grid = Grid(dim, 32 if dim == 2 else 16, 8.0)
        rng = np.random.default_rng(6)
        pts = rng.uniform(-6.0, 6.0, size=(dim, 5, 40))
        vec = random_band_field(grid, 1, 3, seed=6, ncomp=dim)
        mat = rng.standard_normal((2, 2) + grid.shape)
        vals = interp_periodic(vec, pts, grid.extent)
        assert vals.shape == (dim, 5, 40)
        for i in range(dim):
            assert np.array_equal(vals[i], interp_periodic(vec[i], pts, grid.extent))
        vals = interp_periodic(mat, pts, grid.extent)
        assert vals.shape == (2, 2, 5, 40)
        for i in range(2):
            for j in range(2):
                assert np.array_equal(vals[i, j], interp_periodic(mat[i, j], pts, grid.extent))
        coeffs = spline_prefilter(vec, dim)
        assert np.array_equal(coeffs, np.stack([spline_prefilter(c, dim) for c in vec]))
        assert np.array_equal(interp_periodic(coeffs, pts, grid.extent, prefiltered=True),
                              interp_periodic(vec, pts, grid.extent))

    def test_rejects_malformed_input(self):
        grid = Grid(2, 32, 8.0)
        u = random_band_field(grid, 1, 3, seed=7)
        with pytest.raises(ValueError):
            interp_periodic(u, np.zeros((4, 7)), grid.extent)  # 4 coordinate rows
        with pytest.raises(ValueError):
            interp_periodic(u, np.zeros((3, 7)), grid.extent)  # more rows than grid axes
        with pytest.raises(ValueError):
            interp_periodic(u[:, :16], np.zeros((2, 7)), grid.extent)  # non-square grid axes


class TestPrefilter:
    def test_prefilter_roundtrips_through_nodes(self):
        # interpolating the coefficients at the nodes returns the samples
        grid = Grid(2, 32, 16.0)
        u = random_band_field(grid, 1, 6, seed=4)
        coeffs = spline_prefilter(u, grid.dim)
        vals = interp_periodic(coeffs, grid.coords, grid.extent, prefiltered=True)
        assert np.max(np.abs(vals - u)) < 1e-12

    @pytest.mark.parametrize("lead", [(), (2,), (2, 3)])
    @pytest.mark.parametrize("dim, n", [(2, 32), (3, 16)])
    def test_matches_complex_fft_division(self, dim, n, lead):
        # reference: divide the full complex spectrum by the per-axis symbol
        values = np.random.default_rng(5).standard_normal(lead + (n,) * dim)
        axes = tuple(range(len(lead), len(lead) + dim))
        hat = np.fft.fftn(values, axes=axes)
        sym = (4.0 + 2.0 * np.cos(2.0 * np.pi * np.fft.fftfreq(n))) / 6.0
        for axis in axes:
            shape = [1] * values.ndim
            shape[axis] = n
            hat = hat / sym.reshape(shape)
        ref = np.fft.ifftn(hat, axes=axes).real
        coeffs = spline_prefilter(values, dim)
        assert coeffs.shape == values.shape
        assert np.max(np.abs(coeffs - ref)) <= 1e-13 * np.max(np.abs(ref))
