import math
import re
import time

import numpy as np
import pytest
from oracles import packet_moments, packet_psi

from hexmbqc import electron_dynamics as ed


def fast_config(**kw):
    """Coarse grid with a wide packet: cheap but resolution-legal."""
    base = dict(points_x=128, points_y=64, hbar_scale=640.0, dt=2e-13)
    base.update(kw)
    return ed.TrapConfig(**base)


def test_config_validation_names_fields():
    with pytest.raises(ValueError, match="dt"):
        ed.TrapConfig(dt=-1e-13)
    with pytest.raises(ValueError, match="absorber_width_frac"):
        ed.TrapConfig(absorber_width_frac=0.6)
    with pytest.raises(ValueError, match="detector"):
        ed.TrapConfig(detectors=((60e-6, 20e-6),))
    with pytest.raises(ValueError, match="extents"):
        ed.TrapConfig(extent_x=-1.0)
    with pytest.raises(ValueError, match="omega"):
        ed.TrapConfig(omega_rf=0.0)


@pytest.mark.parametrize("fields, message", [
    ({"extent_y": 0.0}, "grid extents must be positive"),
    ({"points_x": 1}, f"points_x=1 must lie in [2, {ed.MAX_GRID_POINTS}]"),
    ({"points_y": 2 * ed.MAX_GRID_POINTS},
     f"points_y={2 * ed.MAX_GRID_POINTS} must lie in [2, {ed.MAX_GRID_POINTS}]"),
    ({"dt": 0.0}, "dt must be positive"),
    ({"absorber_width_frac": 0.5}, "absorber_width_frac must lie in [0, 0.5)"),
    ({"mass": 0.0}, "hbar_scale and mass must be positive"),
    ({"omega_e": -1.0}, "omega_e must be >= 0 and omega_rf > 0"),
    ({"detectors": ((0.0, 0.0),)}, "detector width must be positive"),
    ({"detectors": ((45e-6, 20e-6),)}, "detector at 4.5e-05 m extends outside the grid"),
])
def test_config_refuses_bad_fields_with_their_messages(fields, message):
    for make in (lambda: ed.TrapConfig(**fields), lambda: ed.TrapConfig()._replace(**fields)):
        with pytest.raises(ValueError) as exc:
            make()
        assert str(exc.value) == message


def test_config_is_frozen_and_equal_by_fields_in_order():
    cfg = ed.TrapConfig(points_x=128)
    assert cfg == ed.TrapConfig(points_x=128) and hash(cfg) == hash(ed.TrapConfig(points_x=128))
    assert cfg != ed.TrapConfig() and cfg._replace(points_x=512) == ed.TrapConfig()
    assert ed.TrapConfig._fields == (
        "omega_e", "omega_rf", "static_mode", "detectors", "extent_x", "extent_y",
        "points_x", "points_y", "dt", "absorber_width_frac", "absorber_gain",
        "detector_gain", "hbar_scale", "mass")
    assert tuple(ed.TrapConfig._field_defaults) == ed.TrapConfig._fields
    assert ed.TrapConfig(*ed.TrapConfig._field_defaults.values()) == ed.TrapConfig()
    for field in ("dt", "dx", "extra"):
        with pytest.raises(AttributeError):
            setattr(cfg, field, 1.0)
    est = ed.electron_timescale(1e8)
    assert est == ed.electron_timescale(1e8) and hash(est) == hash(ed.electron_timescale(1e8))
    with pytest.raises(AttributeError):
        est.formula_s = 0.0
    with pytest.raises(AttributeError):  # was a mutable dataclass; nothing assigns to it
        ed.gaussian_wavepacket(fast_config()).t = 1.0


def test_resolution_guards():
    cfg = ed.TrapConfig(points_x=100, points_y=64, hbar_scale=640.0)
    wp = ed.gaussian_wavepacket(cfg)
    with pytest.raises(ed.ConfigurationError, match="power of two"):
        ed.propagate(wp, cfg, 1e-12)
    # literal hbar on this grid is under-resolved and must be refused
    cfg = ed.TrapConfig(hbar_scale=1.0)
    wp = ed.gaussian_wavepacket(cfg)
    with pytest.raises(ed.ConfigurationError, match="under-resolved"):
        ed.propagate(wp, cfg, 1e-12)


def test_propagate_argument_validation():
    cfg = fast_config()
    wp = ed.gaussian_wavepacket(cfg)
    with pytest.raises(ValueError):
        ed.propagate(wp, cfg, 0.0)
    with pytest.raises(ValueError):
        ed.propagate(wp, cfg, 1e-10, sample_interval=1e-14)


def test_gaussian_wavepacket_moments():
    cfg = fast_config()
    wp = ed.gaussian_wavepacket(cfg)
    assert wp.sigma0 == pytest.approx(
        cfg.hbar_eff / (2 * ed.M_ELECTRON * ed.SIGMA_V_DEFAULT), rel=1e-12)
    norm, (mx, my), (sx, sy) = packet_moments(wp, cfg)
    assert norm == pytest.approx(1.0, abs=1e-12)
    assert abs(mx) < 1e-9 and abs(my) < 1e-9
    assert sx == pytest.approx(wp.sigma0, rel=0.02)
    assert sy == pytest.approx(wp.sigma0, rel=0.02)
    with pytest.raises(ValueError):
        ed.gaussian_wavepacket(cfg, sigma_v=0.0)
    with pytest.raises(ValueError):
        ed.gaussian_wavepacket(cfg, sigma0=-1e-6)


@pytest.mark.parametrize("sigma_v", [-1.0, 0.0, math.nan, math.inf])
@pytest.mark.parametrize("sigma0", [None, 3e-6])
def test_bad_sigma_v_is_named_whatever_sigma0_is(sigma_v, sigma0):
    cfg = ed.TrapConfig(points_x=128, points_y=64)
    with pytest.raises(ValueError, match="sigma_v must be positive and finite"):
        ed.gaussian_wavepacket(cfg, sigma_v=sigma_v, sigma0=sigma0)


def test_default_sigma_v_value():
    # velocity spread of a 10 nm ground-state-sized source at literal hbar
    assert ed.SIGMA_V_DEFAULT == pytest.approx(
        ed.HBAR / (2 * ed.M_ELECTRON * 10e-9), rel=1e-12)


def test_saddle_potential_signs():
    cfg = ed.TrapConfig()
    assert ed.saddle_potential(cfg, 1e-6, 0.0) < 0.0
    assert ed.saddle_potential(cfg, 0.0, 1e-6) > 0.0
    assert ed.saddle_potential(cfg, 1e-6, 1e-6) == pytest.approx(0.0, abs=1e-40)
    drv = ed.TrapConfig(static_mode=False)
    t_half = math.pi / drv.omega_rf
    assert ed.saddle_potential(drv, 1e-6, 0.0, t_half) > 0.0


def test_free_packet_width_law_quick():
    # keep the packet well inside the box so wrap-around tails stay tiny
    cfg = fast_config(omega_e=0.0, absorber_width_frac=0.0, detector_gain=0.0)
    wp = ed.gaussian_wavepacket(cfg, v0=0.0, sigma0=3e-6)
    t = 0.25e-9
    res = ed.propagate(wp, cfg, t, sample_interval=t)
    norm, _, (sx, sy) = packet_moments(res.wavepacket, cfg)
    expect = wp.sigma0 * math.sqrt(
        1.0 + (cfg.hbar_eff * t / (2 * ed.M_ELECTRON * wp.sigma0**2)) ** 2)
    assert sx == pytest.approx(expect, rel=1e-5)
    assert sy == pytest.approx(expect, rel=1e-5)
    assert norm == pytest.approx(1.0, abs=1e-9)


def test_mean_position_follows_classical_saddle():
    # Ehrenfest: <x> obeys the classical equation exactly for quadratics
    cfg = fast_config(hbar_scale=320.0, detector_gain=0.0,
                      absorber_width_frac=0.0)
    wp = ed.gaussian_wavepacket(cfg, v0=7e3, sigma0=3e-6)
    t = 0.5e-9
    res = ed.propagate(wp, cfg, t, sample_interval=t)
    _, (mx, _), _ = packet_moments(res.wavepacket, cfg)
    x_cl, _ = ed.classical_trajectory(cfg, 7e3, t)
    assert mx == pytest.approx(x_cl, rel=5e-3)


def test_capture_trace_bookkeeping():
    cfg = fast_config()
    wp = ed.gaussian_wavepacket(cfg, v0=7e3)
    res = ed.propagate(wp, cfg, 1.0e-9, sample_interval=5e-12)
    samples = res.trace.samples
    assert samples[0].t == 0.0
    assert samples[-1].t == pytest.approx(1.0e-9)
    prev = (0.0,) * len(cfg.detectors)
    for s in samples:
        assert all(c >= p - 1e-15 for c, p in zip(s.captured, prev))
        assert s.total_captured == pytest.approx(sum(s.captured), rel=1e-12)
        assert s.total_captured + s.norm_remaining <= 1.0 + 1e-6
        prev = s.captured
    assert samples[-1].total_captured > 0.05  # packet has reached the slabs
    # one sample per 5 ps from 0 to 1 ns, the rows of the CLI's trace.csv
    assert len(samples) == 201
    assert samples[0].t * 1e9 == 0.0 and samples[-1].t * 1e9 == pytest.approx(1.0)


def test_driven_matches_static_at_slow_drive():
    # cos(w_rf t) ~ 1 over the run, so the driven stepper must agree
    common = dict(detector_gain=0.0, absorber_width_frac=0.0)
    stat = fast_config(static_mode=True, **common)
    drv = fast_config(static_mode=False, omega_rf=1e6, **common)
    t = 0.2e-9
    r_s = ed.propagate(ed.gaussian_wavepacket(stat, v0=7e3), stat, t,
                       sample_interval=t)
    r_d = ed.propagate(ed.gaussian_wavepacket(drv, v0=7e3), drv, t,
                       sample_interval=t)
    a, b = packet_psi(r_s.wavepacket), packet_psi(r_d.wavepacket)
    overlap = abs(np.vdot(a, b)) ** 2 / (
        np.vdot(a, a).real * np.vdot(b, b).real)
    assert overlap == pytest.approx(1.0, abs=1e-9)


def test_snapshots_record_density():
    cfg = fast_config(detector_gain=0.0, absorber_width_frac=0.0)
    wp = ed.gaussian_wavepacket(cfg)
    res = ed.propagate(wp, cfg, 1e-10, sample_interval=1e-10,
                       snapshot_times=(5e-11,))
    assert len(res.snapshots) == 1
    snap = res.snapshots[0]
    assert snap.t == pytest.approx(5e-11, abs=cfg.dt)
    assert snap.density.shape == (cfg.points_x, cfg.points_y)
    assert float(snap.density.sum() * cfg.dx * cfg.dy) == pytest.approx(
        1.0, abs=1e-6)


# --- the 2D stepper, kept as the oracle for the separable one -------------

def _cap_masks_2d(wp, config):
    """Detector slabs and boundary frame as 2D damping factors."""
    x = config.x_axis()
    y = config.y_axis()
    dt = config.dt

    detector_damps = []  # (detector index, slice, damping column vector over the slab)
    for i, (cx, w) in enumerate(config.detectors):
        a, b = cx - w / 2.0, cx + w / 2.0
        inner, outer = (a, b) if cx >= 0 else (b, a)
        idx = np.nonzero((x >= min(a, b)) & (x <= max(a, b)))[0]
        if idx.size == 0:
            continue
        sl = slice(idx[0], idx[-1] + 1)
        u = np.abs(x[sl] - inner) / w
        v_char = math.hypot(wp.v0, config.omega_e * abs(outer))
        w0 = config.detector_gain * config.hbar_eff * v_char / w
        damp = np.exp(-w0 * u**2 * dt / config.hbar_eff)
        detector_damps.append((i, sl, damp[:, None]))

    boundary = None
    if config.absorber_width_frac > 0.0:
        wx = config.absorber_width_frac * config.extent_x
        wy = config.absorber_width_frac * config.extent_y
        ux = np.clip((np.abs(x) - (config.extent_x / 2.0 - wx)) / wx, 0.0, None)
        uy = np.clip((np.abs(y) - (config.extent_y / 2.0 - wy)) / wy, 0.0, None)
        v_char = math.hypot(wp.v0, config.omega_e * config.extent_x / 2.0)
        w0x = config.absorber_gain * config.hbar_eff * v_char / wx
        w0y = config.absorber_gain * config.hbar_eff * v_char / wy
        w_frame = w0x * ux[:, None] ** 2 + w0y * uy[None, :] ** 2
        boundary = np.exp(-w_frame * dt / config.hbar_eff)
    return detector_damps, boundary


def _sample_2d(psi, config, t, captured, boundary_lost):
    p = np.abs(psi) ** 2
    w = p.sum()
    x = config.x_axis()
    y = config.y_axis()
    px = p.sum(axis=1) / w
    py = p.sum(axis=0) / w
    mx = px @ x
    my = py @ y
    return ed.EffSample(
        t=t, captured=tuple(captured), total_captured=math.fsum(captured),
        norm_remaining=float(w * config.dx * config.dy), boundary_lost=boundary_lost,
        mean_x=float(mx), mean_y=float(my),
        sigma_x=float(math.sqrt(px @ (x - mx) ** 2)),
        sigma_y=float(math.sqrt(py @ (y - my) ** 2)))


def _propagate_2d(wp, config, t_final, sample_interval=5e-12, snapshot_times=()):
    """Strang V/2 - T - V/2 on the full grid; returns (samples, psi, snapshots)."""
    dt = config.dt
    hbar = config.hbar_eff
    x = config.x_axis()[:, None]
    y = config.y_axis()[None, :]

    v_grid = 0.5 * config.mass * config.omega_e**2 * (np.square(y) - np.square(x))
    kx = 2.0 * math.pi * np.fft.fftfreq(config.points_x, config.dx)[:, None]
    ky = 2.0 * math.pi * np.fft.fftfreq(config.points_y, config.dy)[None, :]
    kin_phase = np.exp(-1j * hbar * (kx**2 + ky**2) / (2.0 * config.mass) * dt)
    half_phase_static = np.exp(-1j * v_grid * dt / (2.0 * hbar))

    detector_damps, boundary = _cap_masks_2d(wp, config)
    cell = config.dx * config.dy

    psi = packet_psi(wp).astype(np.complex128, copy=True)
    n_steps = int(round(t_final / dt))
    stride = max(1, int(round(sample_interval / dt)))
    captured = [0.0] * len(config.detectors)
    boundary_lost = 0.0
    want_snaps = sorted(set(
        min(max(int(round(ts / dt)), 0), n_steps) for ts in snapshot_times))

    samples = [_sample_2d(psi, config, 0.0, captured, boundary_lost)]
    snaps = []
    if want_snaps and want_snaps[0] == 0:
        snaps.append(ed.Snapshot(t=0.0, density=np.abs(psi) ** 2))
        want_snaps.pop(0)

    for step in range(1, n_steps + 1):
        if config.static_mode:
            half = half_phase_static
        else:
            drive = math.cos(config.omega_rf * ((step - 0.5) * dt))
            half = np.exp(-1j * v_grid * (drive * dt / (2.0 * hbar)))
        psi *= half
        psi = np.fft.ifft2(kin_phase * np.fft.fft2(psi))
        psi *= half

        for i, sl, damp in detector_damps:
            seg = psi[sl]
            captured[i] += float(np.sum(np.abs(seg) ** 2 * (1.0 - damp**2)) * cell)
            seg *= damp
        if boundary is not None:
            before = float(np.sum(np.abs(psi) ** 2) * cell)
            psi *= boundary
            boundary_lost += before - float(np.sum(np.abs(psi) ** 2) * cell)

        if step % stride == 0 or step == n_steps:
            samples.append(_sample_2d(psi, config, step * dt, captured, boundary_lost))
        if want_snaps and step == want_snaps[0]:
            snaps.append(ed.Snapshot(t=step * dt, density=np.abs(psi) ** 2))
            want_snaps.pop(0)
    return samples, psi, snaps


def _max_rel(a, b):
    a, b = np.asarray(a), np.asarray(b)
    scale = max(np.max(np.abs(a), initial=0.0), np.max(np.abs(b), initial=0.0))
    return float(np.max(np.abs(a - b)) / scale) if scale else 0.0


def _assert_matches_oracle(res, samples, psi):
    assert len(res.trace.samples) == len(samples)
    for field in ed.EffSample._fields:
        got = [getattr(s, field) for s in res.trace.samples]
        want = [getattr(s, field) for s in samples]
        assert _max_rel(got, want) <= 1e-10, field
    assert _max_rel(packet_psi(res.wavepacket), psi) <= 1e-10


# (points_x, points_y, dt): the stepper stacks psi_x and psi_y in one array of
# max(points) columns and interleaves the shorter factor with zeros, so these
# grids pad y 2-fold, neither, x 4-fold and y 8-fold; the two fine grids need
# the shorter step to keep the kinetic phase per step under 2 rad
GRIDS = [(128, 64, 1e-12), (64, 64, 1e-12), (32, 128, 5e-13), (256, 32, 5e-13)]


def _mode_grid_cases(marks=None):
    """(static, grid) pairs; the 128x64 grid keeps the bare mode as its id."""
    return [pytest.param(static, grid, id=case, marks=(marks or {}).get(case, ()))
            for grid in GRIDS for static, mode in ((True, "static"), (False, "driven"))
            for case in [mode if grid == GRIDS[0] else f"{mode}-{grid[0]}x{grid[1]}"]]


# mean_y is zero but for the grid's unpaired row (|mean_y| <= 1.2e-9 m, the
# scale _max_rel divides by), so at late times both steppers report FFT
# round-off in it.  Driven on 256x32 the stepper's length-256 transform of
# the 8-fold interleaved psi_y and the oracle's length-32 transforms drift
# apart by 1.2e-22 m a step, 1.3e-10 of that scale at 0.6 ns; a long-double
# run of the same 1D steps puts the oracle 1.2e-10 and the stepper 1.6e-11
# from it.  Every other field, psi and the snapshot agree to <= 2e-12 there.
# Another FFT build may round either way, so the mark is not strict.
_ROUNDOFF = {"driven-256x32": pytest.mark.xfail(
    raises=AssertionError,
    reason="mean_y: FFT round-off drift, 1.3e-10 > 1e-10 (see comment)")}


@pytest.mark.parametrize("static, grid", _mode_grid_cases(_ROUNDOFF))
def test_separable_stepper_matches_2d_oracle(static, grid):
    # one drive period spans ten steps at dt = 1 ps, twenty at 0.5 ps
    nx, ny, dt = grid
    cfg = fast_config(points_x=nx, points_y=ny, dt=dt, static_mode=static,
                      omega_rf=2 * math.pi / 1e-11)
    wp = ed.gaussian_wavepacket(cfg, v0=2e4)
    t, snap_t = 0.6e-9, (0.3e-9,)
    res = ed.propagate(wp, cfg, t, sample_interval=5e-12, snapshot_times=snap_t)
    samples, psi, snaps = _propagate_2d(wp, cfg, t, sample_interval=5e-12,
                                        snapshot_times=snap_t)
    assert len(samples) == 121
    last = res.trace.samples[-1]
    # the run exercises both detectors and the boundary frame
    assert min(last.captured) > 1e-5 and last.boundary_lost > 1e-4
    _assert_matches_oracle(res, samples, psi)
    assert res.snapshots[0].t == snaps[0].t
    assert _max_rel(res.snapshots[0].density, snaps[0].density) <= 1e-10


# detector layouts the default pair does not reach: slabs that overlap, so the
# second damps what the first left; a slab reaching into the boundary frame; a
# slab narrower than the grid spacing, which holds no grid point; none at all;
# and no frame
LAYOUTS = {
    "overlapping-slabs": dict(detectors=((22e-6, 20e-6), (30e-6, 20e-6), (-30e-6, 20e-6))),
    "slab-in-frame": dict(detectors=((38e-6, 20e-6), (-30e-6, 20e-6))),
    "empty-slab": dict(detectors=((30e-6, 1e-7), (-30e-6, 20e-6))),
    "no-detectors": dict(detectors=()),
    "no-frame": dict(absorber_width_frac=0.0),
}


@pytest.mark.parametrize("layout", LAYOUTS)
def test_separable_stepper_matches_2d_oracle_layouts(layout):
    cfg = fast_config(dt=1e-12, **LAYOUTS[layout])
    wp = ed.gaussian_wavepacket(cfg, v0=2e4)
    res = ed.propagate(wp, cfg, 0.6e-9, sample_interval=5e-12)
    samples, psi, _ = _propagate_2d(wp, cfg, 0.6e-9, sample_interval=5e-12)
    _assert_matches_oracle(res, samples, psi)
    for s in res.trace.samples:
        budget = s.total_captured + s.boundary_lost + s.norm_remaining
        assert budget == pytest.approx(1.0, abs=1e-9), s.t
    last = res.trace.samples[-1]
    if layout == "empty-slab":
        assert last.captured[0] == 0.0 and last.captured[1] > 1e-5
    elif cfg.detectors:
        assert min(last.captured) > 1e-5
    else:
        assert last.captured == () and last.total_captured == 0.0
    if cfg.absorber_width_frac:
        assert last.boundary_lost > 1e-4
    else:
        assert last.boundary_lost == 0.0


@pytest.mark.parametrize("static, grid", _mode_grid_cases())
def test_norm_budget_closes(static, grid):
    cfg = fast_config(points_x=grid[0], points_y=grid[1], static_mode=static)
    wp = ed.gaussian_wavepacket(cfg, v0=7e3)
    res = ed.propagate(wp, cfg, 1.0e-9, sample_interval=5e-12)
    for s in res.trace.samples:
        budget = s.total_captured + s.boundary_lost + s.norm_remaining
        assert budget == pytest.approx(1.0, abs=1e-9), s.t
    last = res.trace.samples[-1]
    assert last.total_captured > 0.05 and last.boundary_lost > 1e-3


def test_classical_trajectory_pins():
    cfg = ed.TrapConfig(omega_e=2e9)
    x, v = ed.classical_trajectory(cfg, 7e3, 1.5e-9)
    assert x == pytest.approx(3.5062562245934656e-05, rel=1e-12)
    w = 2e9
    assert x == pytest.approx(7e3 / w * math.sinh(w * 1.5e-9), rel=1e-12)
    assert v == pytest.approx(7e3 * math.cosh(w * 1.5e-9), rel=1e-12)


def test_classical_trajectory_series_branch():
    cfg = ed.TrapConfig(omega_e=1.0)
    # deep series regime: indistinguishable from ballistic
    x, v = ed.classical_trajectory(cfg, 1e3, 1e-7)
    assert x == pytest.approx(1e3 * 1e-7, rel=1e-12)
    # continuity across the series/exact switch at w*t = 1e-6
    xa, va = ed.classical_trajectory(cfg, 1e3, 0.99e-6)
    xb, vb = ed.classical_trajectory(cfg, 1e3, 1.01e-6)
    assert xa / 0.99e-6 == pytest.approx(xb / 1.01e-6, rel=1e-10)
    assert va == pytest.approx(vb, rel=1e-10)


def test_classical_trajectory_zero_curvature_is_ballistic():
    cfg = ed.TrapConfig(omega_e=0.0)
    x, v = ed.classical_trajectory(cfg, 5e3, 2e-9)
    assert x == pytest.approx(1e-5, rel=1e-12)
    assert v == 5e3


def test_classical_trajectory_rejects_driven():
    cfg = ed.TrapConfig(static_mode=False)
    with pytest.raises(ValueError):
        ed.classical_trajectory(cfg, 7e3, 1e-9)


def test_mathieu_q_formula():
    q = ed.mathieu_q(1.0, ed.M_CA40, 100.0, 1e-3, 2 * math.pi * 25e6)
    direct = 2 * 1.0 * ed.E_CHARGE * 100.0 / (
        ed.M_CA40 * (1e-3) ** 2 * (2 * math.pi * 25e6) ** 2)
    assert q == pytest.approx(direct, rel=1e-12)
    assert ed.mathieu_q(2.0, ed.M_CA40, 100.0, 1e-3, 2 * math.pi * 25e6) == \
        pytest.approx(2 * q, rel=1e-12)


def test_mass_ratio_is_exact():
    kw = dict(v_rf=50.0, r0=0.5e-3, omega_rf=2 * math.pi * 25e6)
    q_ion = ed.mathieu_q(1.0, ed.M_CA40, **kw)
    q_e = ed.mathieu_q(1.0, ed.M_ELECTRON, **kw)
    assert q_e / q_ion == pytest.approx(ed.M_CA40 / ed.M_ELECTRON, rel=1e-12)
    assert ed.M_CA40 / ed.M_ELECTRON == pytest.approx(72847.3467635759,
                                                      rel=1e-10)


def test_mathieu_stability_classification():
    assert ed.mathieu_stable(0.0, 0.0)
    assert ed.mathieu_stable(0.0, 0.90)
    assert not ed.mathieu_stable(0.0, 0.92)
    assert not ed.mathieu_stable(0.0, 7284.7)  # electron at ion-stable drive
    with pytest.raises(ValueError):
        ed.mathieu_stable(float("nan"), 0.5)


def test_stability_boundary_location():
    q_star = ed.stability_boundary(0.0)
    assert q_star == pytest.approx(0.908, abs=2e-3)
    with pytest.raises(ValueError):
        ed.stability_boundary(0.0, q_lo=1.2, q_hi=1.5)  # no sign change


def _monodromy_trace_dop853(a, q):
    """tr M(pi) by adaptive DOP853 (scipy), the oracle for the RK4 trace."""
    from scipy.integrate import solve_ivp

    def rhs(tau, yv):
        c = a - 2.0 * q * math.cos(2.0 * tau)
        return [yv[1], -c * yv[0], yv[3], -c * yv[2]]

    with np.errstate(over="ignore", invalid="ignore"):
        sol = solve_ivp(rhs, (0.0, math.pi), [1.0, 0.0, 0.0, 1.0],
                        method="DOP853", rtol=1e-10, atol=1e-12)
    if not sol.success or not np.all(np.isfinite(sol.y[:, -1])):
        return math.inf
    return float(sol.y[0, -1] + sol.y[3, -1])


@pytest.mark.parametrize("a, q", [(0.0, 0.0), (0.0, -0.5), (0.0, 0.3), (0.0, 0.9),
                                  (0.0, 0.908), (0.0, 0.92), (0.0, 1.5), (0.5, 0.5),
                                  (-1.0, 2.0), (0.0, 7284.7)])
def test_rk4_trace_matches_dop853_oracle(a, q):
    want = _monodromy_trace_dop853(a, q)
    assert ed._monodromy_trace(a, q) == pytest.approx(want, rel=1e-6)


@pytest.mark.parametrize("a, q", [(0.0, 1e12), (0.0, 1e300), (1.9e6, 1e6), (80.0, 50.0),
                                  (1e4, 4e3), (2.5e5, 1e5)])
def test_mathieu_stable_agrees_with_oracle_at_large_parameters(a, q):
    tr = _monodromy_trace_dop853(a, q)
    t0 = time.perf_counter()
    stable = ed.mathieu_stable(a, q)
    assert time.perf_counter() - t0 < 1.0
    assert stable == (math.isfinite(tr) and abs(tr) <= 2.0 + 1e-9)


def test_stability_boundary_keeps_its_bits():
    # the values the adaptive DOP853 trace gave before the RK4 replaced it
    assert ed.stability_boundary(0.0) == 0.908050537109375
    assert ed.stability_boundary(0.1) == 0.823577880859375


@pytest.mark.parametrize("a, q", [(1e10, 0.0), (1.7e308, -1.7e308)])
def test_mathieu_step_budget_bounds_run_time(a, q):
    # a fast oscillation that never overflows stops at the budget
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match=re.escape(f"a={a!r}, q={q!r}")):
        ed.mathieu_stable(a, q)
    assert time.perf_counter() - t0 < 5.0


def test_electron_timescale():
    est = ed.electron_timescale(2 * math.pi * 25e6)
    assert est.formula_s == pytest.approx(2.358702968839818e-11, rel=1e-12)
    assert est.reference_s == pytest.approx(0.5e-9)
    est2 = ed.electron_timescale(2 * (2 * math.pi * 25e6))
    assert est2.formula_s == pytest.approx(est.formula_s / 2, rel=1e-12)
