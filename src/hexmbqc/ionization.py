"""Effective-operator multiphoton ionization rates and state discrimination.

Four-photon ionization out of the S and D qubit states is modelled with
composite transition amplitudes: per continuum channel lam an effective
four-photon amplitude J[lam], plus for the S state a resonantly enhanced
two-photon composite K divided by a detuning denominator L.  In atomic
units the rates are

    N_S = 4*pi * I**4 * sum(J_S**2)  +  4*pi * I**2 * (K/L)**2
    N_D = 4*pi * I**4 * sum(J_D**2)

with I the irradiance in atomic units (1 a.u. = 3.50945e16 W/cm^2); the
result is converted to s^-1 via the atomic unit of time.  ``rate_s`` and
``rate_d`` each take one ``RateInputs``, whose constructor alone checks
that the inputs are finite, the irradiance non-negative, and K zero
wherever L is.  Amplitudes are calibration inputs shipped in
``data/ca_ii_levels.json``; the shipped numbers pin the S rate at
1e9 W/cm^2 into the 1e9-1e10 s^-1 regime and give a per-channel S/D
amplitude ratio of 40.

The same data file carries a small Ca II level table (energies in eV
above 4S1/2, ionization threshold 11.87 eV) for locating intermediate
m-photon resonances within a wavelength window, and the reference
numbers for the quadrupole / Raman single-qubit-rotation irradiance
estimates (35.5 kHz at 6 W/cm^2 on the S-D quadrupole line; 397 nm dipole
linewidth 2*pi*21 MHz, saturation 47 mW/cm^2).
"""

from __future__ import annotations

import json
import math
import os
from collections import namedtuple
from collections.abc import Mapping

__all__ = [
    "I_ATOMIC_UNIT_W_CM2",
    "ATOMIC_TIME_S",
    "HC_EV_NM",
    "MAX_PHOTONS",
    "SingularResonanceError",
    "UndefinedRatioError",
    "Level",
    "LevelTable",
    "RateInputs",
    "RabiReference",
    "Resonance",
    "ResonanceScan",
    "rate_s",
    "rate_d",
    "discrimination_ratio",
    "find_resonances",
    "quadrupole_irradiance",
    "raman_irradiance",
    "load_bundled_data",
    "load_level_table",
    "load_calibration",
    "calibrated_inputs",
    "load_rabi_reference",
]

I_ATOMIC_UNIT_W_CM2 = 3.50945e16  # 1 a.u. of irradiance in W/cm^2
ATOMIC_TIME_S = 2.4188843265857e-17
HC_EV_NM = 1239.841984  # photon energy (eV) * wavelength (nm)
MAX_PHOTONS = 64  # highest resonance order a scan looks at
_FOUR_PI = 4.0 * math.pi


class SingularResonanceError(ValueError):
    """Resonant composite K != 0 with a vanishing denominator L, which
    ``RateInputs`` refuses."""


class UndefinedRatioError(ValueError):
    """Discrimination ratio requested where the D rate is zero."""


# The records are named tuples: immutable, equal and hashed by their fields.
# Those that validate do it in __new__, which _make, and so _replace, calls.

Level = namedtuple("Level", "name energy_ev")


class LevelTable(namedtuple("LevelTable", "levels ionization_threshold_ev")):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        names = [lv.name for lv in self.levels]
        if len(set(names)) != len(names):
            raise ValueError("level names must be unique")
        for lv in self.levels:
            if not math.isfinite(lv.energy_ev) or lv.energy_ev < 0.0:
                raise ValueError(f"level {lv.name}: energy must be finite and >= 0")
            if lv.energy_ev > self.ionization_threshold_ev:
                raise ValueError(f"level {lv.name}: bound energy above threshold")
        return self

    _make = classmethod(lambda cls, fields: cls(*fields))


class RateInputs(namedtuple("RateInputs", (
        "irradiance_w_cm2",
        "j_channels",  # {channel: amplitude}
        "k_resonant", "l_denominator"), defaults=(0.0, 0.0))):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        vals = [self.irradiance_w_cm2, self.k_resonant, self.l_denominator,
                *self.j_channels.values()]
        if not all(math.isfinite(v) for v in vals):
            raise ValueError("rate inputs must be finite")
        if self.irradiance_w_cm2 < 0.0:
            raise ValueError("irradiance must be >= 0")
        if self.k_resonant != 0.0 and self.l_denominator == 0.0:
            raise SingularResonanceError("K != 0 requires a nonzero denominator L")
        return self

    _make = classmethod(lambda cls, fields: cls(*fields))


class RabiReference(namedtuple("RabiReference", (
        "rabi_hz",            # reference Rabi frequency, Omega/2pi convention
        "irradiance_w_cm2",   # irradiance producing rabi_hz
        "linewidth_rad_s",    # dipole line Gamma (angular)
        "saturation_w_cm2"))):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not all(v > 0 and math.isfinite(v) for v in self):
            raise ValueError("Rabi reference values must be positive and finite")
        return self

    _make = classmethod(lambda cls, fields: cls(*fields))


def _sum_j_squared(j_channels: Mapping[str, float]) -> float:
    # fixed (sorted) accumulation order so equal inputs give bit-equal sums
    return math.fsum(j_channels[k] ** 2 for k in sorted(j_channels))


def _i_au(irradiance_w_cm2: float) -> float:
    return irradiance_w_cm2 / I_ATOMIC_UNIT_W_CM2


def rate_s(inputs: RateInputs) -> float:
    """S-state ionization rate (s^-1): I^4 channel sum plus I^2 resonant term."""
    i = _i_au(inputs.irradiance_w_cm2)
    i2 = i * i
    i4 = i2 * i2  # squared-square keeps the exact 2^4 scaling under I -> 2I
    nonres = _FOUR_PI * i4 * _sum_j_squared(inputs.j_channels)
    res = 0.0
    if inputs.k_resonant != 0.0:
        kl = inputs.k_resonant / inputs.l_denominator
        res = _FOUR_PI * i2 * kl * kl
    return (nonres + res) / ATOMIC_TIME_S


def rate_d(inputs: RateInputs) -> float:
    """D-state ionization rate (s^-1): incoherent I^4 channel sum; the
    resonant fields are not read."""
    i = _i_au(inputs.irradiance_w_cm2)
    i2 = i * i
    i4 = i2 * i2
    return _FOUR_PI * i4 * _sum_j_squared(inputs.j_channels) / ATOMIC_TIME_S


def discrimination_ratio(s_inputs: RateInputs, d_inputs: RateInputs) -> float:
    """rate_s(S inputs) / rate_d(D inputs) at one common irradiance.

    The shared 4*pi*I^4 prefactor is cancelled algebraically, so a uniform
    per-channel amplitude ratio r with K=0 returns exactly r**2 and the
    ratio stays finite for irradiances whose fourth power would underflow.
    With K != 0 it is inf at a positive irradiance whose square in atomic
    units underflows, and UndefinedRatioError at irradiance 0.
    """
    if s_inputs.irradiance_w_cm2 != d_inputs.irradiance_w_cm2:
        raise ValueError("discrimination ratio is defined at equal irradiance")
    sum_d = _sum_j_squared(d_inputs.j_channels)
    if sum_d == 0.0:
        raise UndefinedRatioError("D rate is zero (no channel amplitudes)")
    ratio = _sum_j_squared(s_inputs.j_channels) / sum_d
    if s_inputs.k_resonant != 0.0:
        if s_inputs.irradiance_w_cm2 == 0.0:
            raise UndefinedRatioError("D rate is zero at zero irradiance")
        i = _i_au(s_inputs.irradiance_w_cm2)
        kl = s_inputs.k_resonant / s_inputs.l_denominator
        denom = i * i * sum_d  # underflows to 0 where the ratio passes float range
        ratio += (kl * kl) / denom if denom else math.inf
    return ratio


# wavelength_nm: the in-window wavelength closest to exact resonance;
# detuning_ev: photons * photon_energy(wavelength) - level energy
Resonance = namedtuple("Resonance", "level photons wavelength_nm detuning_ev")
# ionizing_throughout: max_photons photons exceed threshold over the whole
# window; threshold_wavelength_nm: the longest wavelength where max_photons
# photons still ionize
ResonanceScan = namedtuple("ResonanceScan",
                           "hits ionizing_throughout threshold_wavelength_nm")


def find_resonances(
    table: LevelTable,
    wavelength_range_nm: tuple[float, float],
    max_photons: int,
    detuning_cut_ev: float,
) -> ResonanceScan:
    """Locate m-photon intermediate resonances inside a wavelength window.

    A level of energy E is hit at order m if some lambda in the window has
    |m * HC/lambda - E| <= detuning_cut_ev, i.e. the window overlaps
    [m*HC/(E+cut), m*HC/(E-cut)].  Output order is (photons, energy),
    independent of table order; zero-energy levels cannot be intermediate
    resonances and are skipped.  ``detuning_cut_ev`` has no default: the
    one default, 0.03 eV, lives in the CLI's ``ionize resonances`` table.
    """
    if not table.levels:
        raise ValueError("empty level table")
    lo, hi = wavelength_range_nm
    if not (0.0 < lo < hi):
        raise ValueError("wavelength range must satisfy 0 < lo < hi")
    if not 1 <= max_photons <= MAX_PHOTONS:
        raise ValueError(f"max_photons={max_photons} must lie in [1, {MAX_PHOTONS}]")
    if detuning_cut_ev <= 0.0:
        raise ValueError("detuning cut must be positive")

    hits = []
    for lv in sorted(table.levels, key=lambda l: (l.energy_ev, l.name)):
        if lv.energy_ev <= 0.0:
            continue
        for m in range(1, max_photons + 1):
            win_lo = m * HC_EV_NM / (lv.energy_ev + detuning_cut_ev)
            win_hi = (m * HC_EV_NM / (lv.energy_ev - detuning_cut_ev)
                      if lv.energy_ev > detuning_cut_ev else math.inf)
            if win_hi < lo or win_lo > hi:
                continue
            lam = min(max(m * HC_EV_NM / lv.energy_ev, lo), hi)
            hits.append(Resonance(
                level=lv.name,
                photons=m,
                wavelength_nm=lam,
                detuning_ev=m * HC_EV_NM / lam - lv.energy_ev,
            ))
    hits.sort(key=lambda r: (r.photons, r.wavelength_nm, r.level))
    thr = table.ionization_threshold_ev
    return ResonanceScan(
        hits=tuple(hits),
        ionizing_throughout=max_photons * HC_EV_NM / hi > thr,
        threshold_wavelength_nm=max_photons * HC_EV_NM / thr,
    )


def quadrupole_irradiance(ref: RabiReference, t_pulse_s: float) -> float:
    """Irradiance for a quadrupole pi-pulse of duration t: I = I_ref (f/f_ref)^2.

    pi-pulse condition in the Omega/2pi convention: f = 1/(2 t).
    """
    if not (t_pulse_s > 0.0 and math.isfinite(t_pulse_s)):
        raise ValueError("pulse duration must be positive")
    f_needed = 0.5 / t_pulse_s
    r = f_needed / ref.rabi_hz
    return ref.irradiance_w_cm2 * r * r


def raman_irradiance(ref: RabiReference, detuning_linewidths: float,
                     t_pulse_s: float) -> float:
    """Irradiance for a Raman pi-pulse detuned N linewidths from the dipole line.

    Omega = Gamma*sqrt(I/(2 I_sat)) per beam and Omega_R = Omega^2/(2 Delta)
    with Delta = N*Gamma; Omega_R * t = pi then inverts to
    I = 4*pi*N*I_sat/(Gamma*t), linear in N and in 1/t.
    """
    if not (detuning_linewidths > 0.0 and math.isfinite(detuning_linewidths)):
        raise ValueError("detuning must be positive")
    if not (t_pulse_s > 0.0 and math.isfinite(t_pulse_s)):
        raise ValueError("pulse duration must be positive")
    return (4.0 * math.pi * detuning_linewidths * ref.saturation_w_cm2
            / (ref.linewidth_rad_s * t_pulse_s))


# ---------------------------------------------------------------------------
# bundled data

def load_bundled_data() -> dict:
    path = os.path.join(os.path.dirname(__file__), "data", "ca_ii_levels.json")
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    for key in ("levels", "ionization_threshold_ev", "calibration", "rabi_reference"):
        if key not in doc:
            raise ValueError(f"data file missing key {key!r}")
    return doc


def load_level_table() -> LevelTable:
    doc = load_bundled_data()
    levels = tuple(Level(name=lv["name"], energy_ev=float(lv["energy_ev"]))
                   for lv in doc["levels"])
    return LevelTable(levels=levels,
                      ionization_threshold_ev=float(doc["ionization_threshold_ev"]))


def load_calibration() -> dict:
    return load_bundled_data()["calibration"]


def calibrated_inputs(irradiance_w_cm2: float, state: str, calibration: dict) -> RateInputs:
    """RateInputs for ``calibration``; state 's' carries the resonant term."""
    if state == "s":
        return RateInputs(irradiance_w_cm2, dict(calibration["j_channels_s"]),
                          k_resonant=float(calibration["k_resonant"]),
                          l_denominator=float(calibration["l_denominator"]))
    if state == "d":
        return RateInputs(irradiance_w_cm2, dict(calibration["j_channels_d"]))
    raise ValueError(f"state must be 's' or 'd', got {state!r}")


def load_rabi_reference() -> RabiReference:
    doc = load_bundled_data()["rabi_reference"]
    return RabiReference(
        rabi_hz=float(doc["rabi_hz"]),
        irradiance_w_cm2=float(doc["irradiance_w_cm2"]),
        linewidth_rad_s=2.0 * math.pi * float(doc["linewidth_hz"]),
        saturation_w_cm2=float(doc["saturation_w_cm2"]),
    )
