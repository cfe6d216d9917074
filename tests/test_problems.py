"""Benchmark generators: closed-form values, finite-difference accuracy,
periodicity and determinism."""

import math
import tracemalloc

import numpy as np
import pytest

from delaydmd.errors import InvalidGridError, InvalidParameterError, SamplingRateError
from delaydmd.problems import (
    DoubleGyreParams,
    SignalParams,
    generate_double_gyre,
    generate_signal,
    signal_spatial_modes,
    stream_function,
    velocity,
    vorticity_field,
)
from delaydmd.snapshots import GridMeta


def small_gyre(nx=20, ny=20, **kw):
    grid = GridMeta(nx, ny, 0.0, 2.0, 0.0, 1.0)
    return DoubleGyreParams(grid=grid, **kw)


def small_signal(nx=20, ny=20, **kw):
    grid = GridMeta(nx, ny, -2.0, 2.0, -2.0, 2.0)
    return SignalParams(grid=grid, **kw)


def analytic_vorticity(p, t):
    """Closed-form dv/dx - du/dy, derived by differentiating the velocity
    formulas by hand: pi*A*sin(pi*y) * (f_xx*cos(pi*f) - pi*sin(pi*f)*(1 + f_x^2))."""
    xs = p.grid.x_coords()
    ys = p.grid.y_coords()
    xx, yy = np.meshgrid(xs, ys)
    st = p.eps * np.sin(p.omega * t)
    f = st * xx**2 + xx - 2.0 * st * xx
    fx = 2.0 * st * xx + 1.0 - 2.0 * st
    fxx = 2.0 * st
    vort = (np.pi * p.amp * np.sin(np.pi * yy)
            * (fxx * np.cos(np.pi * f) - np.pi * np.sin(np.pi * f) * (1.0 + fx**2)))
    return vort.ravel()


class TestStreamFunction:
    def test_zero_on_channel_walls(self):
        p = small_gyre()
        for x in (0.0, 0.7, 2.0):
            assert stream_function(x, 0.0, 1.3, p) == 0.0

    def test_steady_value_at_origin_phase(self):
        # At t = 0 the phase collapses to f(x) = x.
        p = small_gyre()
        assert stream_function(0.5, 0.5, 0.0, p) == pytest.approx(0.1)

    def test_zero_at_cell_boundary(self):
        p = small_gyre()
        assert stream_function(1.0, 0.5, 0.0, p) == pytest.approx(0.0, abs=1e-15)


class TestVelocity:
    def test_u_vanishes_mid_channel(self):
        p = small_gyre()
        u, _ = velocity(np.linspace(0, 2, 7), 0.5, 2.1, p)
        np.testing.assert_allclose(u, 0.0, atol=1e-15)

    def test_v_vanishes_on_walls(self):
        p = small_gyre()
        for y in (0.0, 1.0):
            _, v = velocity(np.linspace(0, 2, 7), y, 0.4, p)
            np.testing.assert_allclose(v, 0.0, atol=1e-15)

    def test_v_at_left_edge(self):
        # df/dx = 1 at t = 0, so v(0, 0.5, 0) = pi * amp.
        p = small_gyre()
        _, v = velocity(0.0, 0.5, 0.0, p)
        assert v == pytest.approx(0.1 * np.pi)

    def test_u_is_minus_dpsi_dy(self):
        p = small_gyre()
        x, y, t, h = 0.6, 0.3, 1.7, 1e-6
        dpsi_dy = (stream_function(x, y + h, t, p)
                   - stream_function(x, y - h, t, p)) / (2 * h)
        u, _ = velocity(x, y, t, p)
        assert u == pytest.approx(-dpsi_dy, rel=1e-8)

    def test_v_is_dpsi_dx(self):
        p = small_gyre()
        x, y, t, h = 0.6, 0.3, 1.7, 1e-6
        dpsi_dx = (stream_function(x + h, y, t, p)
                   - stream_function(x - h, y, t, p)) / (2 * h)
        _, v = velocity(x, y, t, p)
        assert v == pytest.approx(dpsi_dx, rel=1e-8)


class TestVorticity:
    def test_wall_row_has_no_dvdx_contribution(self):
        # v is identically zero along y = 0, so its x-derivative row is exact zero
        # and the wall row of the vorticity is purely the -du/dy term.
        p = small_gyre()
        xs, ys = p.grid.x_coords(), p.grid.y_coords()
        xx, yy = np.meshgrid(xs, ys)
        u, v = velocity(xx, yy, 0.3, p)
        dvdx = np.gradient(v, xs, axis=1, edge_order=2)
        np.testing.assert_array_equal(dvdx[0], np.zeros(p.grid.nx))
        field = vorticity_field(0.3, p).reshape(p.grid.ny, p.grid.nx)
        dudy = np.gradient(u, ys, axis=0, edge_order=2)
        np.testing.assert_allclose(field[0], -dudy[0], atol=1e-14)

    @pytest.mark.parametrize("t", [0.0, 0.7, 3.9])
    def test_matches_analytic_derivatives(self, t):
        p = small_gyre(nx=60, ny=60)
        fd = vorticity_field(t, p)
        exact = analytic_vorticity(p, t)
        assert np.max(np.abs(fd - exact)) < 1e-2

    def test_second_order_convergence(self, ):
        # Doubling the grid should cut the finite-difference error about 4x.
        t = 1.1
        errors = []
        for n in (20, 40, 80):
            p = small_gyre(nx=n, ny=n)
            errors.append(np.max(np.abs(vorticity_field(t, p) - analytic_vorticity(p, t))))
        for coarse, fine in zip(errors, errors[1:]):
            assert 3.0 < coarse / fine < 5.5

    def test_rejects_tiny_grid(self):
        with pytest.raises(InvalidGridError):
            vorticity_field(0.0, small_gyre(nx=2, ny=5))

    def test_flattening_is_y_outer_x_inner(self):
        # At t = 0 the closed form collapses to -2*pi^2*A*sin(pi x)*sin(pi y);
        # checking one off-diagonal node pins the flattening orientation.
        p = small_gyre(nx=41, ny=31)
        field = vorticity_field(0.0, p)
        ix, iy = 10, 20
        x, y = p.grid.x_coords()[ix], p.grid.y_coords()[iy]
        exact = -2.0 * np.pi**2 * p.amp * np.sin(np.pi * x) * np.sin(np.pi * y)
        assert field[iy * p.grid.nx + ix] == pytest.approx(exact, abs=1e-2)


class TestGenerateDoubleGyre:
    def test_default_dimensions(self):
        data = generate_double_gyre()
        assert data.m == 10000 and data.n == 200
        assert data.dt == 0.05

    def test_minimal_run(self):
        data = generate_double_gyre(small_gyre(nt=2))
        assert data.n == 2
        assert np.all(np.isfinite(data.data))

    def test_counter_rotating_cells(self):
        p = small_gyre(nx=40, ny=40)
        field = vorticity_field(0.05, p).reshape(40, 40)
        left, right = field[:, :20], field[:, 20:]
        assert left.min() < -1.0 and abs(left.max()) < abs(left.min())
        assert right.max() > 1.0 and abs(right.min()) < abs(right.max())

    def test_periodic_in_forcing_period(self):
        p = small_gyre()
        period = 2 * math.pi / p.omega
        f0 = vorticity_field(0.33, p)
        f1 = vorticity_field(0.33 + period, p)
        np.testing.assert_allclose(f1, f0, atol=1e-12)

    def test_matches_meshgrid_reference_bit_for_bit(self):
        # The velocities come from a row of x and a column of y; evaluating
        # them on the full meshgrid must give the same bits.
        p = small_gyre(nx=37, ny=23)
        xs, ys = p.grid.x_coords(), p.grid.y_coords()
        xx, yy = np.meshgrid(xs, ys)
        columns = []
        for k in range(p.nt):
            u, v = velocity(xx, yy, p.t0 + k * p.dt, p)
            columns.append((np.gradient(v, xs, axis=1, edge_order=2)
                            - np.gradient(u, ys, axis=0, edge_order=2)).ravel())
        np.testing.assert_array_equal(generate_double_gyre(p).data, np.column_stack(columns))

    def test_holds_one_copy_of_the_snapshots(self):
        p = small_gyre(nx=37, ny=23)
        reference = np.column_stack([vorticity_field(p.t0 + k * p.dt, p)
                                     for k in range(p.nt)])
        tracemalloc.start()
        try:
            data = generate_double_gyre(p).data
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(data, reference)
        # One (m, nt) array plus per-snapshot temporaries; a list of columns
        # stacked afterwards would hold two.
        assert peak < 1.5 * reference.nbytes

    def test_invalid_params(self):
        with pytest.raises(InvalidParameterError):
            DoubleGyreParams(eps=0.5)
        with pytest.raises(InvalidParameterError):
            DoubleGyreParams(nt=1)


class TestGenerateSignal:
    def test_zero_at_time_origin(self):
        # Starting exactly at t = 0 gives an all-zero first column.
        data = generate_signal(small_signal(t0=0.0, nt=3))
        np.testing.assert_array_equal(data.data[:, 0], 0.0)

    def test_default_start_offset_avoids_zero_column(self):
        p = small_signal()
        assert p.t0 == p.dt
        data = generate_signal(p)
        assert np.linalg.norm(data.data[:, 0]) > 0

    def test_default_time_axis(self):
        p = SignalParams()
        assert p.nt == 81 and p.t0 == 0.05

    def test_first_mode_peak(self):
        # 41 points across [-2, 2] place nodes exactly on (0.5, 0.5).
        grid = GridMeta(41, 41, -2.0, 2.0, -2.0, 2.0)
        v1, _ = signal_spatial_modes(grid)
        assert v1.max() == pytest.approx(2.0)
        iy, ix = divmod(int(np.argmax(v1)), grid.nx)
        assert grid.x_coords()[ix] == pytest.approx(0.5)
        assert grid.y_coords()[iy] == pytest.approx(0.5)

    def test_pure_first_mode_phase(self):
        # At t = 2.5, sin(2*pi*1.3*t) = sin(6.5*pi) = 1 while
        # sin(2*pi*8.4*t) = sin(42*pi) = 0, so the snapshot is exactly v1.
        p = small_signal(t0=2.5, nt=2)
        data = generate_signal(p)
        v1, _ = signal_spatial_modes(p.grid)
        np.testing.assert_allclose(data.data[:, 0], v1, atol=1e-12)

    def test_rank_two_without_noise(self):
        data = generate_signal(small_signal(nt=30))
        s = np.linalg.svd(data.data, compute_uv=False)
        assert s[2] / s[0] < 1e-10

    def test_nyquist_guard(self):
        with pytest.raises(SamplingRateError):
            SignalParams(dt=0.1)

    def test_noise_determinism(self):
        p = small_signal(noise_amp=0.5, nt=4)
        a = generate_signal(p, rng_seed=9)
        b = generate_signal(p, rng_seed=9)
        c = generate_signal(p, rng_seed=10)
        np.testing.assert_array_equal(a.data, b.data)
        assert np.any(a.data != c.data)

    def test_noise_validation(self):
        with pytest.raises(InvalidParameterError):
            SignalParams(noise_amp=-0.1)
