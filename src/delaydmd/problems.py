"""Analytic benchmark generators: the double-gyre vorticity field and a
two-frequency compressible signal with Gaussian spatial modes.

Both generators flatten 2-d fields row-major (y-outer, x-inner), so a flat
vector reshapes to ``(ny, nx)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidGridError, SamplingRateError
from .snapshots import GridMeta, SnapshotMatrix, check_real, check_time_axis


@dataclass(frozen=True)
class DoubleGyreParams:
    """Two counter-rotating cells on [0,2]x[0,1], periodically perturbed.

    The stream function is ``amp * sin(pi * f(x,t)) * sin(pi * y)`` with
    ``f(x,t) = eps*sin(omega*t)*x**2 + x - 2*eps*sin(omega*t)*x``; the only
    time dependence enters through ``sin(omega*t)``, so the flow is periodic
    with period ``2*pi/omega``.
    """

    amp: float = 0.1
    omega: float = 2.0 * math.pi / 10.0
    eps: float = 0.25
    grid: GridMeta = GridMeta(nx=100, ny=100, x_min=0.0, x_max=2.0, y_min=0.0, y_max=1.0)
    nt: int = 200
    dt: float = 0.05
    t0: float = 0.0

    def __post_init__(self):
        check_real("amp", self.amp, 0)
        check_real("omega", self.omega, 0)
        check_real("eps", self.eps, 0, 0.5, closed=True)
        check_time_axis(self.dt, self.t0, self.nt)


@dataclass(frozen=True)
class SignalParams:
    """Two Gaussian spatial modes oscillating at f1 and f2 Hz on [-2,2]^2.

    ``nt`` defaults to cover ``t_final`` seconds at step ``dt``. The first
    sample defaults to t = dt rather than t = 0: at t = 0 the noise-free
    signal is identically zero, which makes the mode amplitudes of any fit
    through it degenerate.
    """

    f1: float = 1.3
    f2: float = 8.4
    noise_amp: float = 0.0
    grid: GridMeta = GridMeta(nx=100, ny=100, x_min=-2.0, x_max=2.0, y_min=-2.0, y_max=2.0)
    dt: float = 0.05
    t_final: float = 4.0
    nt: int | None = None
    t0: float | None = None

    def __post_init__(self):
        check_real("f1", self.f1, 0)
        check_real("f2", self.f2, 0)
        check_real("noise_amp", self.noise_amp, 0, closed=True)
        if self.t0 is None:
            object.__setattr__(self, "t0", self.dt)
        check_time_axis(self.dt, self.t0)  # before dt is compared with the Nyquist step
        check_real("t_final", self.t_final, 0)
        nyquist_dt = 1.0 / (2.0 * max(self.f1, self.f2))
        if self.dt > nyquist_dt:
            raise SamplingRateError(
                f"dt = {self.dt} undersamples the signal: the sampling rate must be "
                f"at least twice the maximum frequency, i.e. dt <= {nyquist_dt:.6g}"
            )
        if self.nt is None:
            check_real("t_final / dt", self.t_final / self.dt)  # an int cannot hold inf
            object.__setattr__(self, "nt", int(math.floor(self.t_final / self.dt + 1e-9)) + 1)
        check_time_axis(self.dt, self.t0, self.nt)


def _gyre_phase(x, t, p: DoubleGyreParams):
    """f(x,t) and df/dx for the gyre stream function."""
    st = p.eps * np.sin(p.omega * t)
    f = st * x**2 + x - 2.0 * st * x
    dfdx = 2.0 * st * x + 1.0 - 2.0 * st
    return f, dfdx


def stream_function(x, y, t, p: DoubleGyreParams):
    """amp * sin(pi*f(x,t)) * sin(pi*y); vectorized over x and y."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    f, _ = _gyre_phase(x, t, p)
    return p.amp * np.sin(np.pi * f) * np.sin(np.pi * y)


def velocity(x, y, t, p: DoubleGyreParams):
    """Velocity components (u, v) of the gyre flow.

    u = -d(psi)/dy and v = d(psi)/dx, evaluated in closed form.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    f, dfdx = _gyre_phase(x, t, p)
    u = -np.pi * p.amp * np.sin(np.pi * f) * np.cos(np.pi * y)
    v = np.pi * p.amp * np.cos(np.pi * f) * np.sin(np.pi * y) * dfdx
    return u, v


def vorticity_field(t, p: DoubleGyreParams) -> np.ndarray:
    """dv/dx - du/dy on the grid, flattened to length nx*ny.

    Velocities are evaluated analytically at the grid nodes, from a row of
    x and a column of y, so the trigonometry runs on nx + ny values and
    only the products broadcast to (ny, nx); the spatial derivatives use
    second-order central differences on interior points and second-order
    one-sided differences on the boundary.
    """
    g = p.grid
    if g.nx < 3 or g.ny < 3:
        raise InvalidGridError(f"finite differences need nx, ny >= 3, got {g.nx}x{g.ny}")
    xs = g.x_coords()
    ys = g.y_coords()
    u, v = velocity(xs[None, :], ys[:, None], t, p)  # each of shape (ny, nx)
    dvdx = np.gradient(v, xs, axis=1, edge_order=2)
    dudy = np.gradient(u, ys, axis=0, edge_order=2)
    return (dvdx - dudy).ravel()


def generate_double_gyre(p: DoubleGyreParams | None = None) -> SnapshotMatrix:
    """Vorticity snapshots of the gyre flow; one column per time step, each
    written into the one snapshot array."""
    if p is None:
        p = DoubleGyreParams()
    data = np.empty((p.grid.size, p.nt))
    for k in range(p.nt):
        data[:, k] = vorticity_field(p.t0 + k * p.dt, p)
    data.setflags(write=False)  # frozen here, so the snapshot matrix keeps it uncopied
    return SnapshotMatrix(data, dt=p.dt, grid=p.grid, t0=p.t0)


def signal_spatial_modes(grid: GridMeta):
    """The two Gaussian bumps carrying the signal, flattened to grid vectors."""
    xx, yy = np.meshgrid(grid.x_coords(), grid.y_coords())
    v1 = 2.0 * np.exp(-((xx - 0.5) ** 2) / (2.0 * 0.6**2)
                      - ((yy - 0.5) ** 2) / (2.0 * 0.2**2))
    v2 = np.exp(-((xx + 0.25) ** 2) / (2.0 * 0.6**2)
                - ((yy - 0.35) ** 2) / (2.0 * 1.2**2))
    return v1.ravel(), v2.ravel()


def generate_signal(p: SignalParams | None = None, rng_seed: int = 0) -> SnapshotMatrix:
    """Snapshots of sin(2*pi*f1*t)*v1 + sin(2*pi*f2*t)*v2 plus optional noise.

    With ``noise_amp > 0`` each snapshot gets i.i.d. standard-normal noise
    scaled by ``noise_amp``, drawn from ``rng_seed``; the generator is a pure
    function of (params, seed).
    """
    if p is None:
        p = SignalParams()
    v1, v2 = signal_spatial_modes(p.grid)
    times = p.t0 + p.dt * np.arange(p.nt)
    data = (np.outer(v1, np.sin(2.0 * np.pi * p.f1 * times))
            + np.outer(v2, np.sin(2.0 * np.pi * p.f2 * times)))
    if p.noise_amp > 0:
        rng = np.random.default_rng(rng_seed)
        data = data + p.noise_amp * rng.standard_normal(data.shape)
    data.setflags(write=False)  # frozen here, so the snapshot matrix keeps it uncopied
    return SnapshotMatrix(data, dt=p.dt, grid=p.grid, t0=p.t0)
