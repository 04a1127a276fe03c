import math

import pytest

from hexmbqc import ionization as ion


S_CHANNELS = {"S": 40.0, "D": 20.0, "G": 10.0}
D_CHANNELS = {"S": 1.0, "D": 0.5, "G": 0.25}


def test_bundled_data_loads():
    doc = ion.load_bundled_data()
    assert doc["schema_version"] == 1
    table = ion.load_level_table()
    assert table.ionization_threshold_ev == pytest.approx(11.87)
    assert len(table.levels) == 7
    assert table.level("4P1/2").energy_ev == pytest.approx(3.1233)
    with pytest.raises(KeyError):
        table.level("nope")


def test_level_table_validation():
    lv = ion.Level("a", 1.0, 1e7, "P")
    with pytest.raises(ValueError):
        ion.LevelTable((lv, lv), 11.87)  # duplicate name
    with pytest.raises(ValueError):
        ion.LevelTable((ion.Level("a", -1.0, 1e7, "P"),), 11.87)
    with pytest.raises(ValueError):
        ion.LevelTable((ion.Level("a", 12.0, 1e7, "P"),), 11.87)


LEVEL = ion.Level("a", 1.0, 1e7, "P")
REFUSED = [
    (lambda: ion.LevelTable((LEVEL, LEVEL), 11.87), "level names must be unique"),
    (lambda: ion.LevelTable((LEVEL._replace(energy_ev=-1.0),), 11.87),
     "level a: energy must be finite and >= 0"),
    (lambda: ion.LevelTable((LEVEL._replace(energy_ev=math.nan),), 11.87),
     "level a: energy must be finite and >= 0"),
    (lambda: ion.LevelTable((LEVEL,), 0.5), "level a: bound energy above threshold"),
    (lambda: ion.LevelTable((LEVEL,), 11.87)._replace(ionization_threshold_ev=0.5),
     "level a: bound energy above threshold"),
    (lambda: ion.RateInputs(1e9, {"S": math.inf}), "rate inputs must be finite"),
    (lambda: ion.RateInputs(1e9, {}, l_denominator=math.nan), "rate inputs must be finite"),
    (lambda: ion.RateInputs(-1.0, {}), "irradiance must be >= 0"),
    (lambda: ion.RateInputs(1e9, {})._replace(irradiance_w_cm2=-1.0),
     "irradiance must be >= 0"),
    (lambda: ion.RabiReference(1.0, 1.0, 1.0, 0.0),
     "Rabi reference values must be positive and finite"),
    (lambda: ion.RabiReference(1.0, math.inf, 1.0, 1.0),
     "Rabi reference values must be positive and finite"),
    (lambda: ion.load_rabi_reference()._replace(rabi_hz=-1.0),
     "Rabi reference values must be positive and finite"),
]


@pytest.mark.parametrize("make, message", REFUSED)
def test_records_refuse_bad_values_with_their_messages(make, message):
    with pytest.raises(ValueError) as exc:
        make()
    assert str(exc.value) == message


def test_ionization_records_are_frozen_and_equal_by_fields():
    table, again = ion.load_level_table(), ion.load_level_table()
    ref = ion.load_rabi_reference()
    scan = ion.find_resonances(table, (380.0, 410.0), 4, 0.03)
    for record in (table, ref, scan, table.levels[0], scan.hits[0]):
        assert record == type(record)(*record) and hash(record) == hash(type(record)(*record))
        with pytest.raises(AttributeError):
            setattr(record, record._fields[0], None)
        with pytest.raises(AttributeError):
            record.extra = None
    assert table == again and hash(table) == hash(again) and table is not again
    assert ion.RateInputs(1e9, {"S": 1.0}) == ion.RateInputs(1e9, {"S": 1.0}, 0.0, 0.0)
    assert ion.RateInputs(1e9, {"S": 1.0}) != ion.RateInputs(1e9, {"S": 2.0})
    with pytest.raises(AttributeError):
        ion.RateInputs(1e9, {}).k_resonant = 1.0


def test_rate_regression_pins():
    cal = ion.load_calibration()
    s = ion.calibrated_inputs(1e9, "s", cal)
    d = ion.calibrated_inputs(1e9, "d", cal)
    assert ion.rate_s(s) == pytest.approx(1763955224.8878448, rel=1e-12)
    assert ion.rate_d(1e9, d.j_channels) == pytest.approx(
        47947.565605656055, rel=1e-12)
    assert 1e9 <= ion.rate_s(s) <= 1e10


def test_nonresonant_rate_quartic_scaling(rng):
    for _ in range(50):
        irr = float(rng.uniform(1e6, 1e12))
        channels = {"S": float(rng.uniform(0.1, 50))}
        lo = ion.rate_d(irr, channels)
        hi = ion.rate_d(2.0 * irr, channels)
        assert hi == pytest.approx(16.0 * lo, rel=1e-15)


def test_resonant_term_quadratic_scaling(rng):
    for _ in range(50):
        irr = float(rng.uniform(1e6, 1e12))
        k = float(rng.uniform(1.0, 300.0))
        ell = float(rng.uniform(0.01, 1.0))
        res_only = lambda i: ion.rate_s(  # noqa: E731
            ion.RateInputs(i, {"S": 0.0}, k_resonant=k, l_denominator=ell))
        assert res_only(2 * irr) == pytest.approx(4.0 * res_only(irr), rel=1e-15)


def test_atomic_unit_plug_in():
    # J=1, I = one atomic unit -> rate is exactly 4*pi per atomic time
    rate = ion.rate_d(ion.I_ATOMIC_UNIT_W_CM2, {"S": 1.0})
    assert rate == pytest.approx(4.0 * math.pi / ion.ATOMIC_TIME_S, rel=1e-15)


def test_discrimination_ratio_exact_1600():
    s = ion.RateInputs(1e9, S_CHANNELS)
    d = ion.RateInputs(1e9, D_CHANNELS)
    assert ion.discrimination_ratio(s, d) == 1600.0
    # single channel, same 40x amplitude contrast
    s1 = ion.RateInputs(3e8, {"S": 40.0})
    d1 = ion.RateInputs(3e8, {"S": 1.0})
    assert ion.discrimination_ratio(s1, d1) == 1600.0
    # matches the raw rate quotient
    quot = ion.rate_s(s) / ion.rate_d(1e9, D_CHANNELS)
    assert quot == pytest.approx(1600.0, rel=1e-12)


def test_discrimination_ratio_with_resonant_term():
    cal = ion.load_calibration()
    s = ion.calibrated_inputs(1e9, "s", cal)
    d = ion.calibrated_inputs(1e9, "d", cal)
    ratio = ion.discrimination_ratio(s, d)
    assert ratio == pytest.approx(
        ion.rate_s(s) / ion.rate_d(1e9, d.j_channels), rel=1e-12)
    assert ratio > 1600.0  # resonant enhancement only helps S


def test_discrimination_ratio_errors():
    s = ion.RateInputs(1e9, S_CHANNELS)
    with pytest.raises(ValueError):
        ion.discrimination_ratio(s, ion.RateInputs(2e9, D_CHANNELS))
    with pytest.raises(ion.UndefinedRatioError):
        ion.discrimination_ratio(s, ion.RateInputs(1e9, {"S": 0.0}))
    s0 = ion.RateInputs(0.0, S_CHANNELS, k_resonant=5.0, l_denominator=0.1)
    with pytest.raises(ion.UndefinedRatioError):
        ion.discrimination_ratio(s0, ion.RateInputs(0.0, D_CHANNELS))


def test_singular_resonance_guard():
    with pytest.raises(ion.SingularResonanceError):
        ion.rate_s(ion.RateInputs(1e9, S_CHANNELS, k_resonant=5.0,
                                  l_denominator=0.0))


def test_rate_inputs_validation():
    with pytest.raises(ValueError):
        ion.RateInputs(-1.0, S_CHANNELS)
    with pytest.raises(ValueError):
        ion.RateInputs(float("inf"), S_CHANNELS)
    with pytest.raises(ValueError):
        ion.RateInputs(1e9, {"S": float("nan")})


def test_resonance_scan_default_window():
    table = ion.load_level_table()
    scan = ion.find_resonances(table, (380.0, 410.0), 4, 0.03)
    got = {(h.level, h.photons) for h in scan.hits}
    assert got == {("4P1/2", 1), ("5S1/2", 2), ("6P1/2", 3), ("6P3/2", 3)}
    assert scan.ionizing_throughout is True
    assert scan.threshold_wavelength_nm == pytest.approx(
        417.8069027801179, rel=1e-12)
    by_key = {(h.level, h.photons): h for h in scan.hits}
    assert by_key[("4P1/2", 1)].wavelength_nm == pytest.approx(396.9651, abs=5e-3)
    assert by_key[("5S1/2", 2)].wavelength_nm == pytest.approx(383.383, abs=5e-3)
    for h in scan.hits:
        assert 380.0 <= h.wavelength_nm <= 410.0
        assert abs(h.detuning_ev) <= 0.03 * h.photons + 1e-12


def test_resonance_window_clipping():
    table = ion.load_level_table()
    scan = ion.find_resonances(table, (380.0, 396.0), 1, 0.03)
    assert len(scan.hits) == 1
    h = scan.hits[0]
    assert h.level == "4P1/2"
    assert h.wavelength_nm == 396.0  # clamped to the scan edge
    assert h.detuning_ev == pytest.approx(
        ion.HC_EV_NM / 396.0 - 3.1233, rel=1e-12)


def test_resonance_scan_skips_ground_level():
    table = ion.load_level_table()
    scan = ion.find_resonances(table, (200.0, 1000.0), 4, detuning_cut_ev=0.2)
    assert all(h.level != "4S1/2" for h in scan.hits)


def test_resonance_scan_validation():
    table = ion.load_level_table()
    with pytest.raises(ValueError):
        ion.find_resonances(table, (410.0, 380.0), 4, 0.03)
    with pytest.raises(ValueError):
        ion.find_resonances(table, (380.0, 410.0), 0, 0.03)
    with pytest.raises(ValueError):
        ion.find_resonances(table, (380.0, 410.0), 4, detuning_cut_ev=0.0)
    with pytest.raises(ValueError):
        ion.find_resonances(ion.LevelTable((), 11.87), (380.0, 410.0), 4, 0.03)


def test_quadrupole_irradiance_pin_and_scaling():
    ref = ion.load_rabi_reference()
    val = ion.quadrupole_irradiance(ref, 2e-9)
    assert val == pytest.approx(297560007.9349334, rel=1e-12)
    assert val == pytest.approx(4.0 * ion.quadrupole_irradiance(ref, 4e-9),
                                rel=1e-12)
    with pytest.raises(ValueError):
        ion.quadrupole_irradiance(ref, 0.0)


def test_raman_irradiance_pin_and_scaling():
    ref = ion.load_rabi_reference()
    val = ion.raman_irradiance(ref, 1e4, 1e-9)
    assert val == pytest.approx(44761.904761904756, rel=1e-12)
    assert ion.raman_irradiance(ref, 2e4, 1e-9) == pytest.approx(2 * val)
    assert ion.raman_irradiance(ref, 1e4, 2e-9) == pytest.approx(val / 2)
    with pytest.raises(ValueError):
        ion.raman_irradiance(ref, 0.0, 1e-9)


def test_rabi_reference_validation():
    with pytest.raises(ValueError):
        ion.RabiReference(0.0, 6.0, 2 * math.pi * 2.1e7, 0.047)
    with pytest.raises(ValueError):
        ion.RabiReference(35500.0, -6.0, 2 * math.pi * 2.1e7, 0.047)
