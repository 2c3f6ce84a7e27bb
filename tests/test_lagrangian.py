from dataclasses import dataclass

import numpy as np
import pytest

from lamelab._interp import interp_periodic, spline_prefilter
from lamelab.besov import BesovIndex, besov_norm_report, besov_norm_reports
from lamelab.fields import checkerboard_density, random_band_field
from lamelab.grid import Grid, divergence, integral, jacobian, lp_norm
from lamelab.lagrangian import (
    CFLError,
    DiffeomorphismError,
    FlowMapData,
    LagrangianState,
    PicardConfig,
    PicardConvergenceError,
    density_transport_check,
    eulerian_reference_solve,
    flow_map,
    grad_besov_l1,
    grad_sup_integral,
    invert_flow,
    matrix_adjugate,
    matrix_determinant,
    nonlinearity_f,
    picard_solve,
    pushforward_eulerian,
    scheme_residual,
    _time_integral,
)
from lamelab.operators import const_semigroup, lame_apply
from lamelab.varcoef import Coefficient, StepperConfig

from conftest import hodge_project, plane_wave


def make_state(grid, params, rho0, u_of_t, T=1.0, nt=11):
    t = np.linspace(0.0, T, nt)
    u = np.stack([u_of_t(tt) for tt in t])
    return LagrangianState(grid, params, rho0, t, u)


@pytest.fixture(scope="module")
def grid64_8():
    return Grid(2, 64, 8.0)


@pytest.fixture(scope="module")
def rough64(grid64_8):
    return Coefficient(grid64_8, checkerboard_density(grid64_8, 0.5, sharpness=2.0), 0.5)


@pytest.fixture(scope="module")
def small_state(grid64_8, params, rough64):
    v = 0.05 * random_band_field(grid64_8, 1, 2, seed=4, ncomp=2)
    return make_state(grid64_8, params, rough64, lambda t: v)


class TestMatrixAlgebra:
    def test_adjugate_times_matrix_is_det(self):
        rng = np.random.default_rng(0)
        for d in (2, 3):
            mat = rng.standard_normal((d, d, 5))
            adj = matrix_adjugate(mat)
            det = matrix_determinant(mat, adj)
            prod = np.einsum("ij...,jk...->ik...", adj, mat)
            for a in range(d):
                for b in range(d):
                    expected = det if a == b else 0.0
                    assert np.allclose(prod[a, b], expected)

    def test_determinant_matches_numpy(self):
        rng = np.random.default_rng(1)
        mat = rng.standard_normal((3, 3, 7))
        det = matrix_determinant(mat, matrix_adjugate(mat))
        ref = np.linalg.det(np.moveaxis(mat, -1, 0))
        assert np.allclose(det, ref)


class TestTimeIntegral:
    @pytest.mark.parametrize("shape", [(2, 3), (3, 2, 5), (7, 2, 2, 16, 16)])
    def test_matches_cumsum(self, shape):
        # the running sum over slices keeps the bits of cumsum along the time axis
        f = np.random.default_rng(10).standard_normal(shape)
        ref = np.zeros_like(f)
        np.cumsum(0.05 * (f[1:] + f[:-1]) / 2.0, axis=0, out=ref[1:])
        assert np.array_equal(_time_integral(f, 0.05), ref)


class TestFlowMap:
    def test_zero_velocity_identity(self, grid64_8, params, rough64):
        state = make_state(grid64_8, params, rough64, lambda t: np.zeros((2,) + grid64_8.shape))
        flow = flow_map(state)
        assert np.max(np.abs(flow.disp)) == 0.0
        assert np.max(np.abs(flow.det - 1.0)) < 1e-14
        eye = np.eye(2).reshape(2, 2, 1, 1)
        assert np.max(np.abs(flow.adj - eye)) < 1e-14

    def test_uniform_translation(self, grid64_8, params, rough64):
        c = np.array([0.3, -0.2])
        u_const = np.broadcast_to(c[:, None, None], (2,) + grid64_8.shape).copy()
        state = make_state(grid64_8, params, rough64, lambda t: u_const, T=2.0)
        flow = flow_map(state)
        assert np.max(np.abs(flow.disp[-1][0] - 2.0 * c[0])) < 1e-12
        eye = np.eye(2).reshape(2, 2, 1, 1)
        assert np.max(np.abs(flow.adj[-1] - eye)) < 1e-12

    def test_time_independent_quadrature_exact(self, small_state):
        # trapezoid of a constant-in-time integrand: disp = t * u exactly
        flow = flow_map(small_state)
        expected = small_state.t[-1] * small_state.u[0]
        assert np.max(np.abs(flow.disp[-1] - expected)) < 1e-8

    def test_adjugate_identity(self, small_state):
        # adj (I + D disp) = det I: the integrated velocity gradient is DX
        flow = flow_map(small_state)
        eye = np.eye(2).reshape(2, 2, 1, 1)
        prod = np.einsum("tij...,tjk...->tik...", flow.adj, eye + jacobian(small_state.grid, flow.disp))
        assert np.max(np.abs(prod - flow.det[:, None, None] * eye)) < 1e-10

    def test_volume_conserved(self, small_state):
        vol = [integral(small_state.grid, flow_map(small_state).det[i]) for i in (0, 5, 10)]
        for v in vol:
            assert v == pytest.approx(small_state.grid.extent**2, rel=1e-6)

    def test_diffeomorphism_loss_raises(self, grid64_8, params, rough64):
        big = 8.0 * random_band_field(grid64_8, 1, 2, seed=5, ncomp=2)
        state = make_state(grid64_8, params, rough64, lambda t: big, T=2.0)
        with pytest.raises(DiffeomorphismError) as err:
            flow_map(state)
        assert err.value.value <= 0.0
        assert len(err.value.node) == 2


@dataclass(frozen=True)
class ChangeOfVariableReport:
    """Max-norm residuals of the pullback identities at one time sample."""

    gradient: float
    divergence_trace: float
    divergence_piola: float
    laplacian: float


def change_of_variable_residual(
    grid: Grid, phi: np.ndarray, v: np.ndarray, flow: FlowMapData, t_index: int
) -> ChangeOfVariableReport:
    """Check the pullback identities for a scalar phi and a vector field v.

    (grad phi) o X = A^T grad(phi o X); (div v) o X equals both the trace
    form Tr[A D(v o X)] and the conservation form div(adj (v o X)) / J; and
    (Lap v) o X = div(adj A^T grad(v o X)) / J, componentwise.
    """
    x_pts = grid.coords + flow.disp[t_index]
    adj = flow.adj[t_index]
    det = flow.det[t_index]
    a_inv = adj / det

    def along_flow(f):  # f o X by interpolation of its nodal samples
        return interp_periodic(grid, x_pts, spline_prefilter(grid, f))

    phi_x = along_flow(phi)
    lhs_grad = along_flow(jacobian(grid, phi))
    rhs_grad = np.einsum("ai...,a...->i...", a_inv, jacobian(grid, phi_x))
    res_grad = float(np.max(np.abs(lhs_grad - rhs_grad)))

    v_x = along_flow(v)
    lhs_div = along_flow(divergence(grid, v))
    dv_x = jacobian(grid, v_x)
    rhs_trace = np.einsum("ij...,ji...->...", a_inv, dv_x)
    rhs_piola = divergence(grid, np.einsum("ij...,j...->i...", adj, v_x)) / det
    res_trace = float(np.max(np.abs(lhs_div - rhs_trace)))
    res_piola = float(np.max(np.abs(lhs_div - rhs_piola)))

    lhs_lap = along_flow(divergence(grid, jacobian(grid, v)))
    metric = np.einsum("ij...,kj...->ik...", adj, a_inv)  # adj A^T
    rhs_lap = divergence(grid, np.einsum("ik...,mk...->mi...", metric, jacobian(grid, v_x))) / det
    res_lap = float(np.max(np.abs(lhs_lap - rhs_lap)))
    return ChangeOfVariableReport(res_grad, res_trace, res_piola, res_lap)


class TestChangeOfVariable:
    def test_identity_flow_zero_residuals(self, grid64_8, params, rough64):
        state = make_state(grid64_8, params, rough64, lambda t: np.zeros((2,) + grid64_8.shape))
        flow = flow_map(state)
        phi = random_band_field(grid64_8, 1, 3, seed=6)
        v = random_band_field(grid64_8, 1, 3, seed=7, ncomp=2)
        rep = change_of_variable_residual(grid64_8, phi, v, flow, 5)
        assert rep.gradient < 1e-10
        assert rep.divergence_trace < 1e-10
        assert rep.divergence_piola < 1e-10
        assert rep.laplacian < 1e-10

    def test_translation_flow_interp_error(self, grid64_8, params, rough64):
        c = np.array([0.37, -0.21])  # not a grid multiple
        u_const = np.broadcast_to(c[:, None, None], (2,) + grid64_8.shape).copy()
        state = make_state(grid64_8, params, rough64, lambda t: u_const)
        flow = flow_map(state)
        phi = random_band_field(grid64_8, 1, 3, seed=8)
        v = random_band_field(grid64_8, 1, 3, seed=9, ncomp=2)
        rep = change_of_variable_residual(grid64_8, phi, v, flow, 10)
        assert rep.gradient < 1e-3
        assert rep.laplacian < 1e-2

    def test_small_flow_refinement(self, params):
        # residuals are far below solver error at N = 128 and contract under
        # doubling: one spectral derivative of the spline composition costs
        # one order (h^3 observed ~8x), the laplacian identity two (~4x)
        results = []
        for n in (64, 128):
            grid = Grid(2, n, 8.0)
            rho0 = Coefficient.constant(grid, 1.0)
            v = 0.1 * random_band_field(grid, 1, 2, seed=10, ncomp=2)
            state = make_state(grid, params, rho0, lambda t: v)
            flow = flow_map(state)
            phi = random_band_field(grid, 1, 2, seed=11)
            w = random_band_field(grid, 1, 2, seed=12, ncomp=2)
            rep = change_of_variable_residual(grid, phi, w, flow, 10)
            results.append(rep)
        for field in ("gradient", "divergence_trace", "divergence_piola"):
            assert getattr(results[1], field) < 1e-4
            ratio = getattr(results[0], field) / getattr(results[1], field)
            assert ratio > 6.0, f"{field}: contraction {ratio}"
        assert results[1].laplacian < 1e-4
        assert results[0].laplacian / results[1].laplacian > 3.0


class TestNonlinearity:
    def test_zero_velocity(self, grid64_8, params, rough64):
        state = make_state(grid64_8, params, rough64, lambda t: np.zeros((2,) + grid64_8.shape))
        f = nonlinearity_f(state, flow_map(state))
        assert np.max(np.abs(f)) == 0.0

    def test_constant_velocity(self, grid64_8, params, rough64):
        c = np.broadcast_to(np.array([0.4, 0.1])[:, None, None], (2,) + grid64_8.shape).copy()
        state = make_state(grid64_8, params, rough64, lambda t: c)
        f = nonlinearity_f(state, flow_map(state))
        assert np.max(np.abs(f)) < 1e-12

    def test_quadratic_smallness(self, grid64_8, params, rough64):
        # L1-Besov norm of f scales 4x down per 2x amplitude reduction
        base = random_band_field(grid64_8, 1, 2, seed=13, ncomp=2)
        idx = BesovIndex(0.0, 2.0)
        norms = []
        for amp in (0.08, 0.04, 0.02):
            state = make_state(grid64_8, params, rough64, lambda t: amp * base)
            f = nonlinearity_f(state, flow_map(state))
            vals = [besov_norm_report(grid64_8, fi, idx).value for fi in f]
            norms.append(np.trapezoid(vals, dx=state.dt))
        for a, b in zip(norms, norms[1:]):
            assert a / b == pytest.approx(4.0, rel=0.2)


@dataclass(frozen=True)
class FlowEstimateReport:
    lhs: float  # sup-in-time Besov distance of (A, adj) from the identity
    rhs: float  # L1-in-time Besov norm of the velocity gradient
    ratio: float
    smallness_ok: bool
    c0: float


def _sup_pair_norm(grid: Grid, a: np.ndarray, adj: np.ndarray, p: float) -> float:
    """sup over time of ||a(t)|| + ||adj(t)|| at regularity n/p (leading time axis)."""
    idx = BesovIndex(grid.dim / p, p)
    pairs = zip(besov_norm_reports(grid, a, idx), besov_norm_reports(grid, adj, idx))
    return max(ra.value + rb.value for ra, rb in pairs)


def flow_estimate_check(state: LagrangianState, c0: float = 0.1, p: float = 2.0) -> FlowEstimateReport:
    """Compare the flow-map deviation from the identity to the gradient budget."""
    grid = state.grid
    flow = flow_map(state)
    eye = np.eye(grid.dim).reshape((grid.dim, grid.dim) + (1,) * grid.dim)
    lhs = _sup_pair_norm(grid, flow.adj / flow.det[:, None, None] - eye, flow.adj - eye, p)
    rhs = grad_besov_l1(state, flow, p)
    ratio = 0.0 if rhs == 0.0 else lhs / rhs
    return FlowEstimateReport(lhs, rhs, ratio, bool(rhs <= c0), c0)


def flow_estimate_difference(
    state1: LagrangianState, state2: LagrangianState, p: float = 2.0
) -> FlowEstimateReport:
    """Difference variant: deviation between two flow maps against grad(v1 - v2)."""
    grid = state1.grid
    f1, f2 = flow_map(state1), flow_map(state2)
    a1, a2 = (f.adj / f.det[:, None, None] for f in (f1, f2))
    lhs = _sup_pair_norm(grid, a1 - a2, f1.adj - f2.adj, p)
    delta = LagrangianState(grid, state1.params, state1.rho0, state1.t, state1.u - state2.u)
    rhs = grad_besov_l1(delta, flow_map(delta), p)
    ratio = 0.0 if rhs == 0.0 else lhs / rhs
    return FlowEstimateReport(lhs, rhs, ratio, True, np.inf)


class TestFlowEstimates:
    def test_zero_velocity_both_sides_zero(self, grid64_8, params, rough64):
        state = make_state(grid64_8, params, rough64, lambda t: np.zeros((2,) + grid64_8.shape))
        rep = flow_estimate_check(state)
        assert rep.lhs == 0.0 and rep.rhs == 0.0 and rep.ratio == 0.0
        assert rep.smallness_ok

    def test_first_order_scaling(self, grid64_8, params, rough64):
        base = random_band_field(grid64_8, 1, 2, seed=14, ncomp=2)
        lhs = []
        for amp in (0.04, 0.02):
            state = make_state(grid64_8, params, rough64, lambda t: amp * base)
            lhs.append(flow_estimate_check(state).lhs)
        assert lhs[0] / lhs[1] == pytest.approx(2.0, rel=0.2)

    def test_ratio_bounded_over_corpus(self, grid64_8, params, rough64):
        ratios = []
        for seed in range(5):
            v = 0.01 * random_band_field(grid64_8, 1, 2, seed=20 + seed, ncomp=2)
            state = make_state(grid64_8, params, rough64, lambda t: v)
            rep = flow_estimate_check(state)
            assert rep.smallness_ok
            ratios.append(rep.ratio)
        assert max(ratios) < 10.0

    def test_difference_variant(self, grid64_8, params, rough64):
        v1 = 0.03 * random_band_field(grid64_8, 1, 2, seed=30, ncomp=2)
        v2 = 0.03 * random_band_field(grid64_8, 1, 2, seed=31, ncomp=2)
        s1 = make_state(grid64_8, params, rough64, lambda t: v1)
        s2 = make_state(grid64_8, params, rough64, lambda t: v2)
        rep = flow_estimate_difference(s1, s2)
        assert 0 < rep.ratio < 10.0

    def test_smallness_flagged_not_fatal(self, grid64_8, params, rough64):
        v = 2.0 * random_band_field(grid64_8, 1, 2, seed=32, ncomp=2)
        state = make_state(grid64_8, params, rough64, lambda t: v, T=0.5)
        rep = flow_estimate_check(state, c0=0.1)
        assert not rep.smallness_ok
        assert np.isfinite(rep.ratio)


class TestGradSupIntegral:
    def test_zero(self, grid64_8, params, rough64):
        state = make_state(grid64_8, params, rough64, lambda t: np.zeros((2,) + grid64_8.shape))
        assert grad_sup_integral(state, flow_map(state)) == (0.0, 0.0)

    def test_single_mode_closed_form(self, grid64_8, params):
        # ||grad u(t)||_inf = a |xi| exp(-mu |xi|^2 t): closed-form integral
        rho0 = Coefficient.constant(grid64_8, 1.0)
        a = 0.3
        kvec = (1, 0)
        xi = 2 * np.pi / grid64_8.extent
        u0 = a * np.stack([np.zeros(grid64_8.shape), plane_wave(grid64_8, kvec)])
        T = 2.0
        state = make_state(
            grid64_8, params, rho0, lambda t: const_semigroup(grid64_8, u0, t, params), T=T, nt=81
        )
        rate = params.mu * xi**2
        exact = a * xi / rate * (1.0 - np.exp(-rate * T))
        total, extrapolated = grad_sup_integral(state, flow_map(state))
        assert total == pytest.approx(exact, rel=1e-3)
        # the decay is one exponential, so the tail estimate completes the integral to infinity
        assert extrapolated == pytest.approx(a * xi / rate, rel=1e-3)


def flow_roundtrip_defect(grid: Grid, disp: np.ndarray, y: np.ndarray) -> float:
    """Max-norm of X(Y(x)) - x for a computed inverse Y."""
    x_back = y + interp_periodic(grid, y, spline_prefilter(grid, disp))
    return float(np.max(np.abs(grid.min_image(x_back - grid.coords))))


class TestPushforward:
    def test_inverse_of_identity(self, grid64_8):
        disp = np.zeros((2,) + grid64_8.shape)
        y = invert_flow(grid64_8, disp)
        assert np.max(np.abs(grid64_8.min_image(y - grid64_8.coords))) < 1e-12

    def test_roundtrip(self, small_state):
        flow = flow_map(small_state)
        y = invert_flow(small_state.grid, flow.disp[-1])
        assert flow_roundtrip_defect(small_state.grid, flow.disp[-1], y) < 1e-8

    def test_translation_flow_shifts_fields(self, grid64_8, params, rough64):
        c = np.array([0.5, 0.25])  # grid multiples: h = 0.125
        u_const = np.broadcast_to(c[:, None, None], (2,) + grid64_8.shape).copy()
        state = make_state(grid64_8, params, rough64, lambda t: u_const, T=1.0)
        flow = flow_map(state)
        _, rho = pushforward_eulerian(state, flow, -1)
        steps = (np.round(c / grid64_8.spacing)).astype(int)
        shifted = np.roll(rough64.rho, shift=tuple(steps), axis=(0, 1))
        assert np.max(np.abs(rho - shifted)) < 1e-9

    def test_identity_flow_unchanged(self, grid64_8, params, rough64):
        state = make_state(grid64_8, params, rough64, lambda t: np.zeros((2,) + grid64_8.shape))
        flow = flow_map(state)
        for i in range(len(state.t)):
            u, rho = pushforward_eulerian(state, flow, i)
            assert np.max(np.abs(rho - rough64.rho)) < 1e-12
            assert np.max(np.abs(u - state.u[i])) < 1e-12


class TestDensityTransport:
    def test_constant_density(self, grid64_8, params):
        rho0 = Coefficient.constant(grid64_8, 1.0)
        v = 0.05 * random_band_field(grid64_8, 1, 2, seed=15, ncomp=2)
        state = make_state(grid64_8, params, rho0, lambda t: v)
        flow = flow_map(state)
        rep = density_transport_check(state, flow)
        # J * (1/J on the path) = 1: only interpolation error of smooth 1/J
        assert rep.max_pointwise_defect < 1e-5
        assert rep.max_mass_defect < 1e-6

    def test_rough_density_mass_conserved(self, small_state, rough64):
        flow = flow_map(small_state)
        rep = density_transport_check(small_state, flow)
        assert rep.max_mass_defect < 1e-6


class TestSchemeResidual:
    def test_measured_in_the_runs_space(self, grid64_8, params, rough64):
        # at p = 3 the defect is measured in L1-in-time B^{n/3-1}_{3,1}, as picard_solve's stop rule at p = 3
        v = 0.05 * random_band_field(grid64_8, 1, 2, seed=4, ncomp=2)
        state = make_state(grid64_8, params, rough64, lambda t: (1.0 - 0.5 * t) * v)
        flow = flow_map(state)
        rhs = lame_apply(grid64_8, state.u, params) + nonlinearity_f(state, flow)
        defect = rough64.rho * np.diff(state.u, axis=0) / state.dt - 0.5 * (rhs[1:] + rhs[:-1])
        idx = BesovIndex(grid64_8.dim / 3.0 - 1.0, 3.0)
        expected = sum(state.dt * besov_norm_report(grid64_8, d, idx).value for d in defect)
        assert scheme_residual(state, flow, 3.0) == pytest.approx(expected, rel=1e-10)
        assert scheme_residual(state, flow, 2.0) != pytest.approx(expected, rel=1e-2)


class TestPicard:
    def test_zero_data_immediate(self, grid64_8, params, rough64):
        u0 = np.zeros((2,) + grid64_8.shape)
        state, diag = picard_solve(rough64, params, u0, 1.0, PicardConfig(dt=0.1))
        assert diag.iterations == 0
        assert np.max(np.abs(state.u)) == 0.0

    def test_small_data_contracts(self, params):
        grid = Grid(2, 32, 8.0)
        rho0 = Coefficient(grid, checkerboard_density(grid, 0.5, sharpness=2.0), 0.5)
        u0 = random_band_field(grid, 1, 3, seed=16, ncomp=2)
        idx = BesovIndex(0.0, 2.0)
        n0 = besov_norm_report(grid, u0, idx).value
        u0 *= 0.05 / n0
        cfg = PicardConfig(dt=0.05, max_iters=20)
        state, diag = picard_solve(rho0, params, u0, 3.0, cfg)
        assert diag.delta_norms[-1] <= diag.stop_tol
        assert diag.smallness_ok
        assert all(f <= 0.5 for f in diag.contraction_factors)
        res = scheme_residual(state, flow_map(state), cfg.p)
        assert res <= 10.0 * diag.stop_tol

    def test_nonconvergence_carries_history(self, params):
        grid = Grid(2, 32, 8.0)
        rho0 = Coefficient(grid, checkerboard_density(grid, 0.5, sharpness=2.0), 0.5)
        u0 = random_band_field(grid, 1, 3, seed=17, ncomp=2)
        idx = BesovIndex(0.0, 2.0)
        n0 = besov_norm_report(grid, u0, idx).value
        u0 *= 0.05 / n0
        cfg = PicardConfig(dt=0.1, max_iters=1, stop_tol_rel=1e-14)
        with pytest.raises(PicardConvergenceError) as err:
            picard_solve(rho0, params, u0, 1.0, cfg)
        assert len(err.value.diagnostics.delta_norms) == 1

    @pytest.mark.parametrize("max_iters", [0, -1])
    def test_rejects_no_iterations(self, max_iters):
        # without one iteration there is no update to judge convergence by
        with pytest.raises(ValueError):
            PicardConfig(dt=0.1, max_iters=max_iters)

    @pytest.mark.parametrize("tol", [0.0, -1e-8, float("nan"), float("inf")])
    def test_rejects_tolerance_no_update_meets(self, tol):
        # no update norm falls below a tolerance <= 0 or NaN (an exact fixed
        # point aside), and every update falls below inf
        with pytest.raises(ValueError):
            PicardConfig(dt=0.1, stop_tol_rel=tol)


class TestEulerianReference:
    def test_zero_velocity_static(self, grid64_8, params, rough64):
        u0 = np.zeros((2,) + grid64_8.shape)
        u, rho = eulerian_reference_solve(rough64, params, u0, 0.5, StepperConfig(dt=0.1))
        assert np.max(np.abs(u)) == 0.0
        assert np.max(np.abs(rho - rough64.rho)) < 1e-12

    def test_small_amplitude_matches_linear_decay(self, grid64_8, params):
        # advection is O(amp^2): the run tracks the constant-coefficient flow
        rho0 = Coefficient.constant(grid64_8, 1.0)
        amp = 0.02
        u0 = amp * hodge_project(
            grid64_8, random_band_field(grid64_8, 1, 2, seed=18, ncomp=2), "P"
        )
        T = 1.0
        u, _ = eulerian_reference_solve(rho0, params, u0, T, StepperConfig(dt=0.02))
        exact = const_semigroup(grid64_8, u0, T, params)
        rel = lp_norm(grid64_8, u - exact, 2) / lp_norm(grid64_8, exact, 2)
        assert rel < 0.02

    def test_cfl_rejection(self, grid64_8, params, rough64):
        u0 = 10.0 * np.ones((2,) + grid64_8.shape)
        with pytest.raises(CFLError):
            eulerian_reference_solve(rough64, params, u0, 1.0, StepperConfig(dt=0.1))


class TestCrossValidation:
    def test_two_solvers_agree(self, params):
        grid = Grid(2, 64, 8.0)
        rho0 = Coefficient(grid, checkerboard_density(grid, 0.5, sharpness=2.0), 0.5)
        u0 = random_band_field(grid, 1, 3, seed=7, ncomp=2)
        idx = BesovIndex(0.0, 2.0)
        n0 = besov_norm_report(grid, u0, idx).value
        u0 *= 0.05 / n0
        T = 3.0
        cfg = PicardConfig(dt=0.05)
        state, diag = picard_solve(rho0, params, u0, T, cfg)
        flow = flow_map(state)
        u_eul, _ = pushforward_eulerian(state, flow, -1)
        u_ref, _ = eulerian_reference_solve(rho0, params, u0, T, cfg.stepper)
        rel = lp_norm(grid, u_eul - u_ref, 2) / lp_norm(grid, u_ref, 2)
        assert rel < 0.05
