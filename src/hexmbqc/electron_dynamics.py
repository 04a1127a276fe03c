"""2D wavepacket dynamics of a photoelectron in the trap saddle potential.

The freed electron moves in V(x, y, t) = (m w_e^2 / 2)(y^2 - x^2) * drive,
anti-trapping along x (toward the detectors) and trapping along y; drive
is 1 in static mode or cos(w_rf t).  Propagation uses a Strang-split
spectral stepper (exact kinetic step in Fourier space), so grid point
counts must be powers of two.  Detector slabs and the grid-boundary
absorber are smooth complex-absorbing masks applied once per step; the
norm removed inside each detector slab accumulates as that detector's
capture probability, and the boundary's loss is kept, so capture +
boundary loss + remaining norm = 1.  Hard projective removal is
deliberately avoided: with v*dt several orders below a de Broglie
wavelength it acts as a continuous position measurement and
Zeno-reflects flux off the slab.

Separability: V = V_x(x) + V_y(y), the kinetic phase, the x-only slabs,
the boundary damping b_x(x) b_y(y) and the initial Gaussian all factor in
x and y, so each step maps psi_x(x) psi_y(y) to another product exactly;
the stepper evolves the two 1D factors and never forms the 2D grid.

Stacked layout: both factors are the two rows of one complex (2, N) array,
N = max(points_x, points_y), the shorter factor on every r-th slot
(r = N/points, whole since both counts are powers of two) and zeros between.
The N-point DFT of a signal interleaved with r-1 zeros is its own DFT
repeated r times, so one batched FFT pair along the last axis advances both
factors exactly, with the shorter factor's kinetic phase tiled r times and
the masks zero on the padding slots, which keeps them empty.  All per-step
bookkeeping is one product of precomputed weight rows with |psi|^2 of the
kinetic output (|exp(-iV dt/2 hbar)| = 1, so the potential phase leaves it
unchanged): the norm of psi_y, the x and y norms the boundary frame removes
and keeps, and one row per detector weighted (1 - d_i^2) prod_{j<i} d_j^2,
so overlapping slabs damp in config order.  Samples read the norm, mean and
width of both factors from a second set of rows.

Momentum-grid surrogate: the physical initial state (10 nm source, which
fixes the velocity spread sigma_v = hbar/(2 m 10nm) ~ 5.8e3 m/s, and the
~1e5 m/s arrival velocities) spans 4 decades of wavenumber that no
desk-scale grid holds at once.  The stepper therefore evolves with
hbar_eff = hbar_scale * hbar and anchors the initial packet by sigma_v,
not by source size.  Velocities, times, the potential, and therefore
arrival statistics and capture fractions are unchanged; only the
position-space fringe texture is coarsened.  hbar_scale=1 recovers the
literal equation and is rejected by the resolution heuristics at the
default grid, which is the honest statement that the literal parameters
are unrepresentable in 512x256.

Classical reference: x(t) = (v0/w) sinh(w t) on the anti-trapped axis —
exact for wavepacket means by Ehrenfest's theorem in a quadratic
potential.  Trap-stability analysis solves the Mathieu equation
y'' + (a - 2 q cos 2 tau) y = 0 by explicit Floquet monodromy: fixed-step
RK4 over one period in plain ``math``, at most MATHIEU_STEP_BUDGET steps.

numpy is imported inside the functions that compute with arrays, so the
classical, Mathieu and timescale calculations run without it.
"""

from __future__ import annotations

import math
from collections import namedtuple

__all__ = [
    "E_CHARGE", "M_ELECTRON", "HBAR", "M_CA40", "SIGMA_V_DEFAULT",
    "ConfigurationError",
    "TrapConfig", "Wavepacket", "EffSample", "EfficiencyTrace",
    "PropagationResult", "Snapshot",
    "saddle_potential", "gaussian_wavepacket", "propagate",
    "classical_trajectory",
    "MAX_GRID_POINTS", "MAX_STEPS",
    "MATHIEU_STEP_BUDGET", "mathieu_q", "mathieu_stable", "stability_boundary",
    "TimescaleEstimate", "electron_timescale",
]

E_CHARGE = 1.602176634e-19
M_ELECTRON = 9.1093837015e-31
HBAR = 1.0545718176461565e-34
M_CA40 = 39.962590863 * 1.66053906660e-27

# velocity spread of a 10 nm minimum-uncertainty electron packet (m/s);
# the invariant the hbar_eff surrogate preserves
SIGMA_V_DEFAULT = HBAR / (2.0 * M_ELECTRON * 10e-9)
# the most grid points per axis and steps one propagation may take: 16 and
# 33 times the default 512-point axis and 3 ns / 0.1 ps run
MAX_GRID_POINTS = 1 << 13
MAX_STEPS = 1_000_000


class ConfigurationError(ValueError):
    """Grid/stepper resolution or stability heuristics violated: a
    validation error, so the CLI exits 1 on it as on any ValueError."""


# The records are named tuples: immutable, equal and hashed by their fields.

# TrapConfig's fields in order, with their defaults
_TRAP_FIELDS = {
    "omega_e": 2.5e9,                     # saddle curvature (rad/s)
    "omega_rf": 2.0 * math.pi * 25e6,     # drive frequency (rad/s)
    "static_mode": True,
    "detectors": ((30e-6, 20e-6), (-30e-6, 20e-6)),  # (centre x, width) per slab (m)
    "extent_x": 100e-6,
    "extent_y": 50e-6,
    "points_x": 512,
    "points_y": 256,
    "dt": 1e-13,
    "absorber_width_frac": 0.10,
    "absorber_gain": 12.0,                # CAP strength, boundary frame
    "detector_gain": 12.0,                # CAP strength, detector slabs
    "hbar_scale": 64.0,
    "mass": M_ELECTRON,
}


class TrapConfig(namedtuple("TrapConfig", _TRAP_FIELDS, defaults=_TRAP_FIELDS.values())):
    """The trap, grid and absorber settings of one propagation; validated
    on construction, by ``_replace`` too."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not (self.extent_x > 0 and self.extent_y > 0):
            raise ValueError("grid extents must be positive")
        for npts, label in ((self.points_x, "points_x"), (self.points_y, "points_y")):
            if not 2 <= npts <= MAX_GRID_POINTS:
                raise ValueError(f"{label}={npts} must lie in [2, {MAX_GRID_POINTS}]")
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if not 0.0 <= self.absorber_width_frac < 0.5:
            raise ValueError("absorber_width_frac must lie in [0, 0.5)")
        if self.hbar_scale <= 0 or self.mass <= 0:
            raise ValueError("hbar_scale and mass must be positive")
        if self.omega_e < 0 or self.omega_rf <= 0:
            raise ValueError("omega_e must be >= 0 and omega_rf > 0")
        for cx, w in self.detectors:
            if w <= 0:
                raise ValueError("detector width must be positive")
            if abs(cx) + w / 2.0 > self.extent_x / 2.0:
                raise ValueError(f"detector at {cx} m extends outside the grid")
        return self

    _make = classmethod(lambda cls, fields: cls(*fields))

    @property
    def hbar_eff(self) -> float:
        return self.hbar_scale * HBAR

    @property
    def dx(self) -> float:
        return self.extent_x / self.points_x

    @property
    def dy(self) -> float:
        return self.extent_y / self.points_y

    def x_axis(self) -> np.ndarray:
        import numpy as np
        return (np.arange(self.points_x) - self.points_x / 2.0) * self.dx

    def y_axis(self) -> np.ndarray:
        import numpy as np
        return (np.arange(self.points_y) - self.points_y / 2.0) * self.dy


def _square(v: float) -> float:
    """v**2, or inf where that passes float range (a float power raises there)."""
    try:
        return v**2
    except OverflowError:
        return math.inf


def saddle_potential(config: TrapConfig, x, y, t: float = 0.0):
    """V = (m w_e^2/2)(y^2 - x^2), times cos(w_rf t) when driven."""
    import numpy as np
    drive = 1.0 if config.static_mode else math.cos(config.omega_rf * t)
    return 0.5 * config.mass * _square(config.omega_e) * (np.square(y) - np.square(x)) * drive


# A product state psi(x, y) = psi_x(x) * psi_y(y).
Wavepacket = namedtuple("Wavepacket", (
    "psi_x",   # complex amplitudes over x, shape (points_x,)
    "psi_y",   # complex amplitudes over y, shape (points_y,)
    "sigma0",  # initial grid-space width (m)
    "v0",      # initial +x velocity (m/s)
    "t"), defaults=(0.0,))


def _norm(psi: np.ndarray, step: float) -> float:
    import numpy as np
    return float(np.vdot(psi, psi).real * step)


def gaussian_wavepacket(config: TrapConfig, *, v0: float = 7e3, sigma_v: float = SIGMA_V_DEFAULT,
                        sigma0: float | None = None) -> Wavepacket:
    """Isotropic Gaussian centred on the origin with mean velocity (v0, 0).

    By default the width is set from the velocity spread: sigma0 =
    hbar_eff/(2 m sigma_v), minimum-uncertainty under the configured
    hbar_eff.  Passing sigma0 pins the grid-space width directly.
    ConfigurationError when k0 = m v0 / hbar_eff is past float range;
    ``propagate`` checks every other resolution limit.
    """
    import numpy as np
    if not 0.0 < sigma_v < math.inf:
        raise ValueError(f"sigma_v must be positive and finite, got {sigma_v}")
    if sigma0 is None:
        sigma0 = config.hbar_eff / (2.0 * config.mass * sigma_v)
    if not 0.0 < sigma0 < math.inf:
        raise ValueError("sigma0 must be positive and finite")
    k0 = config.mass * v0 / config.hbar_eff
    if not math.isfinite(k0):  # past any Nyquist wavenumber; exp(1j k0 x) would be NaN
        _momentum_check(config, v0, sigma0)
    x = config.x_axis()
    spread = 4.0 * _square(sigma0)
    psi_x = np.exp(-(x ** 2) / spread) * np.exp(1j * k0 * x)
    psi_y = np.exp(-(config.y_axis() ** 2) / spread).astype(np.complex128)
    psi_x /= math.sqrt(_norm(psi_x, config.dx))
    psi_y /= math.sqrt(_norm(psi_y, config.dy))
    return Wavepacket(psi_x=psi_x, psi_y=psi_y, sigma0=sigma0, v0=v0, t=0.0)


EffSample = namedtuple("EffSample", (
    "t",
    "captured",        # per detector, cumulative
    "total_captured",
    "norm_remaining",
    "boundary_lost",   # norm absorbed by the boundary frame, cumulative
    "mean_x", "mean_y", "sigma_x", "sigma_y"))


EfficiencyTrace = namedtuple("EfficiencyTrace", "samples")  # a tuple of EffSample
Snapshot = namedtuple("Snapshot", "t density")  # density: |psi|^2 on the grid
PropagationResult = namedtuple("PropagationResult", "trace wavepacket snapshots",
                               defaults=((),))


def _momentum_check(config: TrapConfig, v0: float, sigma0: float) -> None:
    k0 = config.mass * abs(v0) / config.hbar_eff
    k_spread = 1.0 / (2.0 * sigma0)
    k_nyq = math.pi / config.dx
    if k0 + 4.0 * k_spread > 0.9 * k_nyq:
        raise ConfigurationError(
            f"momentum content k0+4sk = {k0 + 4 * k_spread:.3e} rad/m exceeds "
            f"90% of the grid Nyquist wavenumber {k_nyq:.3e} rad/m")


def _resolution_checks(wp: Wavepacket, config: TrapConfig) -> None:
    for npts, label in ((config.points_x, "points_x"), (config.points_y, "points_y")):
        if npts & (npts - 1):
            raise ConfigurationError(f"{label}={npts} is not a power of two "
                                     "(spectral stepper)")
    if wp.sigma0 < 2.0 * max(config.dx, config.dy):
        raise ConfigurationError(
            f"initial width {wp.sigma0:.3e} m under-resolved: need >= 2 grid "
            f"spacings ({2 * max(config.dx, config.dy):.3e} m); a larger "
            "hbar_scale or finer grid is required")
    _momentum_check(config, wp.v0, wp.sigma0)
    # phase advanced per step by the potential corners / kinetic Nyquist edge
    v_corner = abs(saddle_potential(
        config, config.extent_x / 2.0, config.extent_y / 2.0, 0.0))
    if v_corner * config.dt / config.hbar_eff > 0.5:
        raise ConfigurationError("potential phase per step exceeds 0.5 rad; reduce dt")
    k2_max = (math.pi / config.dx) ** 2 + (math.pi / config.dy) ** 2
    if config.hbar_eff * k2_max / (2 * config.mass) * config.dt > 2.0:
        raise ConfigurationError("kinetic phase per step exceeds 2 rad; reduce dt")


def _cap_masks(wp: Wavepacket, config: TrapConfig):
    """Per-step damping factors of the detector slabs and the boundary frame.

    Returns ([d_1(x), d_2(x), ...], (b_x(x), b_y(y))): one factor over x per
    detector, in config order, and the frame's factors, whose product
    b_x(x) b_y(y) is its 2D damping.  Every factor is 1 outside its region,
    so a slab that holds no grid point (or a frame of width 0) damps nothing.
    Quadratic-ramp absorbing potential W = gain * hbar_eff * v_char/width * u^2
    with u the fractional penetration depth; damping factor exp(-W dt/hbar_eff).
    v_char covers both the injection velocity and the saddle-accelerated
    arrival velocity at the slab's outer edge.
    """
    import numpy as np
    x = config.x_axis()
    y = config.y_axis()
    dt = config.dt

    detector_damps = []
    for cx, w in config.detectors:
        a, b = cx - w / 2.0, cx + w / 2.0
        inner, outer = (a, b) if cx >= 0 else (b, a)
        inside = (x >= min(a, b)) & (x <= max(a, b))
        u = np.abs(x[inside] - inner) / w
        v_char = math.hypot(wp.v0, config.omega_e * abs(outer))
        w0 = config.detector_gain * config.hbar_eff * v_char / w
        damp = np.ones(config.points_x)
        damp[inside] = np.exp(-w0 * u**2 * dt / config.hbar_eff)
        detector_damps.append(damp)

    b_x, b_y = np.ones(config.points_x), np.ones(config.points_y)
    if config.absorber_width_frac > 0.0:
        wx = config.absorber_width_frac * config.extent_x
        wy = config.absorber_width_frac * config.extent_y
        ux = np.clip((np.abs(x) - (config.extent_x / 2.0 - wx)) / wx, 0.0, None)
        uy = np.clip((np.abs(y) - (config.extent_y / 2.0 - wy)) / wy, 0.0, None)
        v_char = math.hypot(wp.v0, config.omega_e * config.extent_x / 2.0)
        w0x = config.absorber_gain * config.hbar_eff * v_char / wx
        w0y = config.absorber_gain * config.hbar_eff * v_char / wy
        b_x = np.exp(-w0x * ux**2 * dt / config.hbar_eff)
        b_y = np.exp(-w0y * uy**2 * dt / config.hbar_eff)
    return detector_damps, (b_x, b_y)


def _mean_width(m0: float, m1: float, m2: float) -> tuple[float, float]:
    """Mean and width of a density from sum(p), sum(p a), sum(p a^2); NaN when empty."""
    if not m0 > 0.0:
        return math.nan, math.nan
    mean = m1 / m0
    return mean, math.sqrt(max(m2 / m0 - mean * mean, 0.0))


def propagate(
    wp: Wavepacket,
    config: TrapConfig,
    t_final: float,
    *,
    sample_interval: float = 5e-12,
    snapshot_times: tuple[float, ...] = (),
) -> PropagationResult:
    """Advance the packet to t_final, accumulating detector capture.

    Strang splitting V/2 - T - V/2 per step of psi_x and psi_y, both held in
    one stacked spectral array (see the module notes); detector and boundary
    masks applied after each step.  The returned trace samples cumulative
    per-detector capture (slab loss from psi_x times the norm of psi_y),
    total capture, remaining norm, boundary loss, and packet position/width
    moments roughly every sample_interval.
    """
    import numpy as np
    if t_final <= 0:
        raise ValueError("t_final must be positive")
    if sample_interval < config.dt:
        raise ValueError("sample_interval must be >= dt")
    if not t_final / config.dt <= MAX_STEPS:  # inf past float range
        raise ValueError(f"t_final/dt = {t_final!r}/{config.dt!r} is past the limit "
                         f"of {MAX_STEPS} steps")
    _resolution_checks(wp, config)

    dt = config.dt
    hbar = config.hbar_eff
    dx, dy = config.dx, config.dy
    nx, ny = config.points_x, config.points_y
    n = max(nx, ny)
    rx, ry = n // nx, n // ny  # whole numbers: both counts are powers of two
    x, y = config.x_axis(), config.y_axis()

    def stack(fx, fy):
        """(2, n): fx on every rx-th slot of row 0, fy on every ry-th of row 1, 0 between."""
        out = np.zeros((2, n), dtype=np.result_type(fx, fy))
        out[0, ::rx], out[1, ::ry] = fx, fy
        return out

    def weights(rows):
        """Rows over a stacked array, each weight twice: applied to the squared
        float view (re, im, re, im, ...) of psi they sum w |psi|^2."""
        return np.repeat(np.reshape(rows, (len(rows), 2 * n)), 2, axis=1)

    def abs2(psi):
        return np.square(psi.view(np.float64)).ravel()

    kx = 2.0 * math.pi * np.fft.fftfreq(nx, dx)
    ky = 2.0 * math.pi * np.fft.fftfreq(ny, dy)
    # the n-point DFT of a factor interleaved with r-1 zeros is its own DFT r times over
    kin = np.stack([np.tile(np.exp(-1j * hbar * kx**2 / (2.0 * config.mass) * dt), rx),
                    np.tile(np.exp(-1j * hbar * ky**2 / (2.0 * config.mass) * dt), ry)])
    # V(x, y) = V(x, 0) + V(0, y) at t=0; driven mode scales it by the drive per step
    v_phase = -1j * stack(saddle_potential(config, x, 0.0), saddle_potential(config, 0.0, y))
    half = np.exp(v_phase * dt / (2.0 * hbar))
    # V is even in x and y, so it takes about n/2 values per row: driven mode
    # exponentiates each value once per step and gathers
    v_values, v_index = np.unique(v_phase, return_inverse=True)
    v_index = v_index.reshape(2, n)

    # keep_x is |damping|^2 of the slabs passed so far, in config order, so
    # overlapping slabs damp in turn; the step rows read |psi|^2 after the kinetic
    # step, before the masks (|half| = 1)
    damps, (b_x, b_y) = _cap_masks(wp, config)
    mask_x, keep_x, slab_rows = b_x, np.ones(nx), []
    for d in damps:
        slab_rows.append(stack(keep_x * (1.0 - d**2) * dx, 0.0))
        keep_x, mask_x = keep_x * d**2, mask_x * d
    mask = stack(mask_x, b_y)  # zero on the interleaved slots, which it keeps empty
    step_w = weights([stack(0.0, np.full(ny, dy)),
                      stack(keep_x * (1.0 - b_x**2) * dx, 0.0),
                      stack(keep_x * b_x**2 * dx, 0.0),
                      stack(0.0, (1.0 - b_y**2) * dy), *slab_rows])
    # norm, first and second moment of |psi_x|^2 and of |psi_y|^2, read at samples
    moment_w = weights([stack(a * dx, 0.0) for a in (np.ones(nx), x, x**2)]
                       + [stack(0.0, a * dy) for a in (np.ones(ny), y, y**2)])

    psi = stack(wp.psi_x, wp.psi_y).astype(np.complex128, copy=False)
    half_out = half * mask
    n_steps = int(round(t_final / dt))
    # a sample interval or snapshot time past t_final falls on the last step
    stride = max(1, int(round(min(sample_interval, t_final) / dt)))
    captured = [0.0] * len(config.detectors)
    boundary_lost = 0.0
    want_snaps = sorted(set(
        int(round(min(max(ts, 0.0), t_final) / dt)) for ts in snapshot_times))

    samples, snaps = [], []
    for step in range(n_steps + 1):
        if step:
            if not config.static_mode:
                phase = math.cos(config.omega_rf * ((step - 0.5) * dt)) * dt / (2.0 * hbar)
                half = np.exp(v_values * phase).take(v_index)
                half_out = half * mask
            psi = np.fft.ifft(kin * np.fft.fft(half * psi))
            norm_y, lost_x, kept_x, lost_y, *slab = (step_w @ abs2(psi)).tolist()
            psi *= half_out
            captured = [c + s * norm_y for c, s in zip(captured, slab)]
            boundary_lost += lost_x * norm_y + kept_x * lost_y

        if step % stride == 0 or step == n_steps:  # always true at the last step
            x0, x1, x2, y0, y1, y2 = (moment_w @ abs2(psi)).tolist()
            (mx, sx), (my, sy) = _mean_width(x0, x1, x2), _mean_width(y0, y1, y2)
            samples.append(EffSample(
                t=step * dt, captured=tuple(captured), total_captured=math.fsum(captured),
                norm_remaining=x0 * y0, boundary_lost=boundary_lost,
                mean_x=mx, mean_y=my, sigma_x=sx, sigma_y=sy))
        if want_snaps and step == want_snaps[0]:
            snaps.append(Snapshot(t=step * dt, density=np.outer(np.abs(psi[0, ::rx]) ** 2,
                                                                np.abs(psi[1, ::ry]) ** 2)))
            want_snaps.pop(0)

    w = Wavepacket(psi_x=psi[0, ::rx].copy(), psi_y=psi[1, ::ry].copy(),
                   sigma0=wp.sigma0, v0=wp.v0, t=n_steps * dt)
    return PropagationResult(trace=EfficiencyTrace(samples=tuple(samples)),
                             wavepacket=w, snapshots=tuple(snaps))


def classical_trajectory(config: TrapConfig, v0: float, t: float) -> tuple[float, float]:
    """(x, v) on the anti-trapped axis: x = (v0/w) sinh(wt), v = v0 cosh(wt)."""
    if not config.static_mode:
        raise ValueError("classical trajectory is defined for the static saddle")
    wt = config.omega_e * t
    if abs(wt) < 1e-6:
        # series in (wt)^2; exact ballistic limit at omega_e = 0
        x = v0 * t * (1.0 + wt**2 / 6.0 + wt**4 / 120.0)
        v = v0 * (1.0 + wt**2 / 2.0 + wt**4 / 24.0)
        return (x, v)
    return (v0 / config.omega_e * math.sinh(wt), v0 * math.cosh(wt))


# ---------------------------------------------------------------------------
# Mathieu / Floquet stability

def mathieu_q(charge: float, mass: float, v_rf: float, r0: float,
              omega_rf: float) -> float:
    """Standard RF-trap parameter q = 2 Q e V_rf / (m r0^2 w_rf^2)."""
    if mass <= 0 or r0 <= 0 or omega_rf <= 0:
        raise ValueError("mass, r0 and omega_rf must be positive")
    try:
        q = 2.0 * charge * E_CHARGE * v_rf / (mass * r0**2 * omega_rf**2)
    except (OverflowError, ZeroDivisionError):  # r0**2 or omega_rf**2 past float range
        q = math.nan
    if not math.isfinite(q):
        raise ValueError(f"q out of float range: v_rf={v_rf!r}, r0={r0!r}, omega_rf={omega_rf!r}")
    return q


# RK4 steps per unit of the fastest local rate sqrt(|a| + 2|q|) over the
# period, and the most steps one trace may take
_RK4_STEPS_PER_RATE = 40
MATHIEU_STEP_BUDGET = 1 << 19


def _monodromy_trace(a: float, q: float) -> float:
    """tr M(pi), M the monodromy of y'' + (a - 2q cos 2tau) y = 0 over [0, pi].

    Classic RK4 with N = max(256, ceil(40 sqrt(|a| + 2|q|) pi)) equal steps
    h = pi/N advances both fundamental solutions, (y, y') = (1, 0) and
    (0, 1), in the variables y and w = h y' (the second solution divided by
    h), where one stage reads s = h^2 (a - 2q cos 2tau): no product can
    overflow before the solution does.  The trace is y_1(pi) + y_2'(pi).
    Returns inf at the first non-finite state.  For a <= 0 the solution
    grows from tau = 0 by up to e^(1/40) a step, so a large q overflows
    within ~3e4 steps however large it is.  Raises ValueError once
    MATHIEU_STEP_BUDGET steps pass without finishing or overflowing: a large
    positive a is a fast oscillation that never overflows.
    """
    rate = 2.0 * math.sqrt(0.25 * abs(a) + 0.5 * abs(q))  # sqrt(|a| + 2|q|), no overflow
    n = max(256, math.ceil(_RK4_STEPS_PER_RATE * rate * math.pi))
    h = math.pi / n
    ah2, qh2 = a * h * h, 2.0 * (q * h * h)
    cos, finite = math.cos, math.isfinite
    y1, w1, y2, w2 = 1.0, 0.0, 0.0, 1.0
    s0 = ah2 - qh2
    for k in range(min(n, MATHIEU_STEP_BUDGET)):
        s1 = ah2 - qh2 * cos((2 * k + 1) * h)  # at tau + h/2
        s2 = ah2 - qh2 * cos((2 * k + 2) * h)  # at tau + h
        ya, wa = y1 + 0.5 * w1, w1 - 0.5 * s0 * y1
        yb, wb = y1 + 0.5 * wa, w1 - 0.5 * s1 * ya
        yc, wc = y1 + wb, w1 - s1 * yb
        y1, w1 = (y1 + (w1 + 2.0 * (wa + wb) + wc) / 6.0,
                  w1 - (s0 * y1 + 2.0 * s1 * (ya + yb) + s2 * yc) / 6.0)
        ya, wa = y2 + 0.5 * w2, w2 - 0.5 * s0 * y2
        yb, wb = y2 + 0.5 * wa, w2 - 0.5 * s1 * ya
        yc, wc = y2 + wb, w2 - s1 * yb
        y2, w2 = (y2 + (w2 + 2.0 * (wa + wb) + wc) / 6.0,
                  w2 - (s0 * y2 + 2.0 * s1 * (ya + yb) + s2 * yc) / 6.0)
        if not (finite(y1) and finite(w1) and finite(y2) and finite(w2)):
            return math.inf
        s0 = s2
    if n > MATHIEU_STEP_BUDGET:
        raise ValueError(
            f"Mathieu trace at a={a!r}, q={q!r} neither finished nor overflowed "
            f"within the budget of {MATHIEU_STEP_BUDGET} RK4 steps")
    return y1 + w2


def mathieu_stable(a: float, q: float) -> bool:
    """Floquet stability of y'' + (a - 2q cos 2tau) y = 0: |tr M(pi)| <= 2.

    Solutions that overflow the integrator are reported unstable.  A 1e-9
    tolerance on the trace keeps the marginal free case (0, 0) stable.
    ValueError for non-finite input, and for one that exhausts the step
    budget without overflowing (see _monodromy_trace).
    """
    if not (math.isfinite(a) and math.isfinite(q)):
        raise ValueError("a and q must be finite")
    tr = _monodromy_trace(a, q)
    return math.isfinite(tr) and abs(tr) <= 2.0 + 1e-9


def stability_boundary(a: float, q_lo: float = 0.5, q_hi: float = 1.5,
                       tol: float = 1e-4) -> float:
    """Bisect the first stable/unstable transition in q at fixed a.  The
    CLI's ``electron mathieu`` table holds the one default, a = 0."""
    if not mathieu_stable(a, q_lo) or mathieu_stable(a, q_hi):
        raise ValueError("bracket must satisfy stable(q_lo) and not stable(q_hi)")
    while q_hi - q_lo > tol:
        mid = 0.5 * (q_lo + q_hi)
        if mathieu_stable(a, mid):
            q_lo = mid
        else:
            q_hi = mid
    return 0.5 * (q_lo + q_hi)


TimescaleEstimate = namedtuple("TimescaleEstimate", (
    "formula_s",     # (1/w_rf) sqrt(m_e/m_ion)
    "reference_s"))  # quoted characteristic value for comparison


def electron_timescale(omega_rf: float, m_ion: float = M_CA40) -> TimescaleEstimate:
    """Characteristic electron timescale; the formula and the quoted 0.5 ns
    reference disagree by ~20x at 2*pi*25 MHz, so both are returned."""
    if omega_rf <= 0 or m_ion <= 0:
        raise ValueError("omega_rf and m_ion must be positive")
    return TimescaleEstimate(
        formula_s=math.sqrt(M_ELECTRON / m_ion) / omega_rf,
        reference_s=0.5e-9,
    )
