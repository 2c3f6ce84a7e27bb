import numpy as np
import pytest
import scipy.fft

from lamelab import grid as grid_module
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
        vals = interp_periodic(grid, grid.coords, spline_prefilter(grid, u))
        assert np.max(np.abs(vals - u)) < 1e-12

    def test_fourth_order_convergence(self, query_points):
        errs = []
        for n in (64, 128):
            grid = Grid(2, n, 16.0)
            u = random_band_field(grid, 1, 4, seed=0)
            raw = band_field_reference(grid, 1, 4, 0, None)
            exact = eval_band_field(1, 4, 0, 16.0, query_points, np.max(np.abs(raw)))
            errs.append(np.max(np.abs(interp_periodic(grid, query_points, spline_prefilter(grid, u)) - exact)))
        assert errs[0] / errs[1] == pytest.approx(16.0, rel=0.4)

    def test_periodic_wrap(self):
        grid = Grid(2, 32, 16.0)
        u = random_band_field(grid, 1, 4, seed=2)
        pts = np.array([[7.9, -8.1], [0.3, 0.3]])  # same physical point
        vals = interp_periodic(grid, pts, spline_prefilter(grid, u))
        assert vals[0] == pytest.approx(vals[1], abs=1e-12)

    def test_reproduces_nodal_values_3d(self):
        grid = Grid(3, 16, 8.0)
        u = random_band_field(grid, 1, 3, seed=0)
        vals = interp_periodic(grid, grid.coords, spline_prefilter(grid, u))
        assert np.max(np.abs(vals - u)) < 1e-12

    def test_periodic_wrap_3d(self):
        grid = Grid(3, 16, 8.0)
        u = random_band_field(grid, 1, 3, seed=2)
        # one physical point, shifted by a whole period along one axis, then along all three
        pts = np.array([[3.9, -4.1, -4.1], [0.3, 0.3, 8.3], [-1.7, -1.7, 6.3]])
        vals = interp_periodic(grid, pts, spline_prefilter(grid, u))
        assert vals[1] == pytest.approx(vals[0], abs=1e-12)
        assert vals[2] == pytest.approx(vals[0], abs=1e-12)


def fancy_index_interp(coeffs, coords, extent):
    """Per-component form of interp_periodic: a fancy-index gather and one
    einsum per component, stacked. The bitwise reference of the shared gather."""
    dim = coords.shape[0]
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
        grid = Grid(dim, n, 8.0)
        coeffs = spline_prefilter(grid, rng.standard_normal(lead + grid.shape))
        pts = rng.uniform(-12.0, 12.0, size=(dim, 3, 50))
        assert np.array_equal(interp_periodic(grid, pts, coeffs), fancy_index_interp(coeffs, pts, 8.0))

    @pytest.mark.parametrize("dim, n", [(2, 32), (3, 16)])
    def test_chunks_of_points_keep_the_bits(self, dim, n, monkeypatch):
        # 150 points gathered 7 at a time (21 chunks, the last of 3 points)
        # against one gather: every point keeps its bits
        rng = np.random.default_rng(10)
        grid = Grid(dim, n, 8.0)
        coeffs = spline_prefilter(grid, rng.standard_normal((2,) + grid.shape))
        pts = rng.uniform(-12.0, 12.0, size=(dim, 3, 50))
        monkeypatch.setattr(grid_module, "CHUNK_BYTES", 7 * 8 * 4**dim * 3)  # 7 points of 2 components
        chunked = interp_periodic(grid, pts, coeffs)
        monkeypatch.setattr(grid_module, "CHUNK_BYTES", 150 * 8 * 4**dim * 3)
        assert np.array_equal(chunked, interp_periodic(grid, pts, coeffs))
        assert np.array_equal(chunked, fancy_index_interp(coeffs, pts, 8.0))

    @pytest.mark.parametrize("dim, n", [(2, 32), (3, 16)])
    def test_prefiltered_stack_keeps_each_field(self, dim, n):
        # the Eulerian step's stack [u, rho, div u]: its leading rows are u's own coefficients
        grid = Grid(dim, n, 8.0)
        rng = np.random.default_rng(9)
        u, rho, div = rng.standard_normal((dim,) + (n,) * dim), rng.random((n,) * dim), rng.standard_normal((n,) * dim)
        coeffs = spline_prefilter(grid, np.concatenate([u, rho[None], div[None]]))
        assert np.array_equal(coeffs[:dim], spline_prefilter(grid, u))
        assert np.array_equal(coeffs[dim], spline_prefilter(grid, rho))
        assert np.array_equal(coeffs[dim + 1], spline_prefilter(grid, div))

    @pytest.mark.parametrize("dim", [2, 3])
    def test_matches_scalar_calls(self, dim):
        # leading axes share one stencil; each component equals its own scalar call bitwise
        grid = Grid(dim, 32 if dim == 2 else 16, 8.0)
        rng = np.random.default_rng(6)
        pts = rng.uniform(-6.0, 6.0, size=(dim, 5, 40))
        vec = random_band_field(grid, 1, 3, seed=6, ncomp=dim)
        mat = rng.standard_normal((2, 2) + grid.shape)
        vals = interp_periodic(grid, pts, spline_prefilter(grid, vec))
        assert vals.shape == (dim, 5, 40)
        for i in range(dim):
            assert np.array_equal(vals[i], interp_periodic(grid, pts, spline_prefilter(grid, vec[i])))
        vals = interp_periodic(grid, pts, spline_prefilter(grid, mat))
        assert vals.shape == (2, 2, 5, 40)
        for i in range(2):
            for j in range(2):
                assert np.array_equal(vals[i, j], interp_periodic(grid, pts, spline_prefilter(grid, mat[i, j])))
        coeffs = spline_prefilter(grid, vec)
        assert np.array_equal(coeffs, np.stack([spline_prefilter(grid, c) for c in vec]))
        assert np.array_equal(interp_periodic(grid, pts, coeffs),
                              interp_periodic(grid, pts, spline_prefilter(grid, vec)))

    def test_rejects_malformed_input(self):
        grid = Grid(2, 32, 8.0)
        coeffs = spline_prefilter(grid, random_band_field(grid, 1, 3, seed=7))
        with pytest.raises(ValueError):
            interp_periodic(grid, np.zeros((4, 7)), coeffs)  # 4 coordinate rows
        with pytest.raises(ValueError):
            interp_periodic(grid, np.zeros((3, 7)), coeffs)  # more rows than grid axes
        with pytest.raises(ValueError):
            interp_periodic(grid, np.zeros((2, 7)), coeffs[:, :16])  # non-square grid axes
        with pytest.raises(ValueError):
            interp_periodic(grid, np.zeros((2, 7)), coeffs[::2, ::2])  # another grid's shape


class TestPrefilter:
    def test_prefilter_roundtrips_through_nodes(self):
        # interpolating the coefficients at the nodes returns the samples
        grid = Grid(2, 32, 16.0)
        u = random_band_field(grid, 1, 6, seed=4)
        coeffs = spline_prefilter(grid, u)
        vals = interp_periodic(grid, grid.coords, coeffs)
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
        coeffs = spline_prefilter(Grid(dim, n, 8.0), values)
        assert coeffs.shape == values.shape
        assert np.max(np.abs(coeffs - ref)) <= 1e-13 * np.max(np.abs(ref))

    @pytest.mark.parametrize("lead", [(), (2,), (2, 3)])
    @pytest.mark.parametrize("dim, n", [(2, 32), (3, 16)])
    def test_matches_per_axis_real_fft_form(self, dim, n, lead):
        # the grid's transform pair gives the bits of a direct real FFT over the trailing axes
        values = np.random.default_rng(10).standard_normal(lead + (n,) * dim)
        assert np.array_equal(spline_prefilter(Grid(dim, n, 8.0), values), per_axis_prefilter(values, dim))


def per_axis_prefilter(values, dim):
    """spline_prefilter written against scipy.fft directly, with the symbol
    rebuilt for every trailing axis: the bitwise reference of the Grid form."""
    axes = tuple(range(values.ndim - dim, values.ndim))
    hat = scipy.fft.rfftn(values, axes=axes)
    for axis in axes:
        n = values.shape[axis]
        sym = (4.0 + 2.0 * np.cos(2.0 * np.pi * np.fft.fftfreq(n))) / 6.0
        shape = [1] * values.ndim
        shape[axis] = hat.shape[axis]
        hat = hat / sym[: hat.shape[axis]].reshape(shape)
    return scipy.fft.irfftn(hat, s=values.shape[values.ndim - dim:], axes=axes)
