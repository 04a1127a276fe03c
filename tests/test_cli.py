import hashlib
import json
import math
import os
import re
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import (check_rounds, linear_cluster_pattern, pauli_expectation, reference_layers,
                     statevector_oracle)

from hexmbqc import cli, lattice, mbqc, resources

CHAIN_EDGES = [(0, 1), (1, 2), (2, 3), (3, 4)]


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def _cli_env():
    """The environment for a subprocess that imports this checkout's hexmbqc."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}


def _modules_after(argvs, out, *flags):
    """Exit codes of ``argvs`` run one after another in one fresh process,
    started with the interpreter ``flags``, and the names of every module
    loaded at its end."""
    code = (
        "import contextlib, io, json, sys\n"
        "from hexmbqc import cli\n"
        "codes = []\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    with contextlib.redirect_stdout(io.StringIO()), "
        "contextlib.redirect_stderr(io.StringIO()):\n"
        "        codes.append(cli.dispatch(argv + ['--out', sys.argv[2]]))\n"
        "print(json.dumps([codes, sorted(sys.modules)]))\n")
    proc = subprocess.run([sys.executable, *flags, "-c", code, json.dumps(argvs), str(out)],
                          env=_cli_env(), capture_output=True, text=True, timeout=60,
                          check=True)
    return json.loads(proc.stdout)


def test_cli_import_leaves_scipy_integrate_unloaded(tmp_path, capsys):
    # a cold process imports only what its subcommand runs: these need
    # neither numpy nor scipy, which cost most of the CLI's start-up; mbqc
    # simulates and samples in plain Python
    run(capsys, "schedule", "--rows", "3", "--cols", "3", "--out", str(tmp_path))
    doc = json.loads((tmp_path / "schedule.json").read_text())
    doc["rounds"][0].pop()
    (tmp_path / "missing_gate.json").write_text(json.dumps(doc))
    (tmp_path / "bad.json").write_text(json.dumps({"lattice": {"rowz": 3}}))
    (tmp_path / "pattern.json").write_text(json.dumps(_chain_doc()))
    argvs = [(["lattice"], 0), (["schedule"], 0), (["verify", "--n", "2"], 0),
             (["verify", "--schedule", str(tmp_path / "missing_gate.json")], 2),
             (["lattice", "--config", str(tmp_path / "bad.json")], 1),
             (["mbqc", "--pattern", str(tmp_path / "pattern.json"), "--seed", "3"], 0),
             (["ionize", "rates"], 0), (["ionize", "resonances"], 0),
             (["ionize", "quadrupole"], 0), (["ionize", "raman"], 0),
             (["electron", "classical"], 0), (["electron", "mathieu", "--q", "0.5",
                                              "--boundary"], 0),
             (["electron", "timescale"], 0), (["resources"], 0)]
    codes, modules = _modules_after([a for a, _ in argvs], tmp_path / "out")
    assert codes == [want for _, want in argvs]
    loaded = {m.split(".")[0] for m in modules}
    assert "numpy" not in loaded and "scipy" not in loaded


def test_only_ionize_loads_the_ionization_module(tmp_path):
    argvs = [["lattice"], ["verify"], ["electron", "timescale"], ["resources"]]
    codes, modules = _modules_after(argvs, tmp_path)
    assert codes == [0] * len(argvs)
    assert "hexmbqc.graphstate" not in modules and "hexmbqc.ionization" not in modules
    _, modules = _modules_after(argvs + [["ionize", "quadrupole"]], tmp_path)
    assert "hexmbqc.ionization" in modules


# what one cold process loads past cli and resources, which cli imports at the
# top: the library modules and numpy (~85 ms); dataclasses (~7 ms) is looked
# for too, and no subcommand loads it
EDC = ["hexmbqc.electron_dynamics"]
ION = ["hexmbqc.data", "hexmbqc.ionization"]
SCHED = ["hexmbqc.lattice", "hexmbqc.scheduler"]
LOADED = [
    (["lattice"], 0, ["hexmbqc.lattice"]),
    (["schedule"], 0, SCHED),
    (["verify"], 0, SCHED),
    (["verify", "--schedule", "{dir}/schedule.json"], 0, SCHED),
    (["mbqc", "--pattern", "{dir}/pattern.json"], 0, ["hexmbqc.mbqc"]),
    (["ionize", "rates"], 0, ION),
    (["ionize", "resonances"], 0, ION),
    (["ionize", "quadrupole"], 0, ION),
    (["ionize", "raman"], 0, ION),
    (["electron", "classical"], 0, EDC),
    (["electron", "mathieu", "--q", "0.5", "--boundary"], 0, EDC),
    (["electron", "timescale"], 0, EDC),
    (["electron", "propagate", "--dump-config"], 0, EDC),
    (["resources"], 0, []),
    (["resources", "--config", "{dir}/bad.json"], 1, []),
    (["lattice", "--config", "{dir}/bad.json"], 1, []),
]


def _cold(tmp_path, capsys, argv, *flags):
    """Exit code and loaded modules of one ``LOADED`` argv in a fresh process."""
    run(capsys, "schedule", "--out", str(tmp_path))
    (tmp_path / "pattern.json").write_text(json.dumps(_chain_doc()))
    (tmp_path / "bad.json").write_text(json.dumps({"lattice": {"rowz": 3}}))
    return _modules_after([[a.format(dir=tmp_path) for a in argv]], tmp_path / "out", *flags)


@pytest.mark.parametrize("argv, code, want", LOADED, ids=[" ".join(a) for a, _, _ in LOADED])
def test_a_cold_process_loads_only_its_subcommand(tmp_path, capsys, argv, code, want):
    codes, modules = _cold(tmp_path, capsys, argv)
    loaded = [m for m in modules if m in ("dataclasses", "numpy")
              or m.startswith("hexmbqc.") and m not in ("hexmbqc.cli", "hexmbqc.resources")]
    assert (codes, loaded) == ([code], want)


@pytest.mark.parametrize("argv, code", [(a, c) for a, c, _ in LOADED],
                         ids=[" ".join(a) for a, _, _ in LOADED])
def test_no_subcommand_loads_dataclasses_inspect_or_typing(tmp_path, capsys, argv, code):
    # -S: a .pth file in site-packages may import typing before hexmbqc runs.
    # The library's records are named tuples or slotted classes, so only
    # ionize loads typing, when importlib.resources reads its bundled data
    codes, modules = _cold(tmp_path, capsys, argv, "-S")
    allowed = {"typing"} if argv[0] == "ionize" else set()
    assert (codes, {"dataclasses", "inspect", "typing"} & set(modules) - allowed) == ([code], set())


def test_a_config_block_loads_its_module_and_is_checked(tmp_path):
    # every block the file holds is validated, so a bad key in another
    # command's block is still refused, after loading that command's module
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"electron": {"timescale": {"m_ion": 1.0}}}))
    codes, modules = _modules_after([["resources", "--config", str(cfg)]], tmp_path / "out")
    assert codes == [0] and "hexmbqc.electron_dynamics" in modules
    cfg.write_text(json.dumps({"schedule": {"t_gaet": 1.0}}))
    codes, modules = _modules_after([["resources", "--config", str(cfg)]], tmp_path / "out")
    assert codes == [1] and "hexmbqc.scheduler" in modules


geomspace_ends = st.floats(allow_nan=False, allow_infinity=False).filter(bool)


@settings(max_examples=300, deadline=None)
@given(geomspace_ends, geomspace_ends, st.integers(0, 40))
@example(1e8, 1e10, 25).via("the ionize rates default")
@example(3.0, 7.0, 1).via("one point")
@example(3.0, 7.0, 2).via("two points")
@example(-2.0, -5e12, 9).via("both ends negative")
@example(2.0, -5.0, 4).via("ends of opposite sign")
@example(1.234567e3, 9.87654321e15, 101).via("numpy's power off by an ulp")
def test_geomspace_is_numpys_arithmetic(start, stop, num):
    """cli._geomspace repeats np.geomspace's arithmetic: the same value bit
    for bit wherever numpy's float64 log10 and power round as the C
    library's do (everywhere on a build without SIMD transcendentals),
    within 1e-12 elsewhere; numpy's AVX-512 power misses correct rounding
    in ~5% of calls."""
    got = cli._geomspace(start, stop, num)
    with np.errstate(invalid="ignore", over="ignore"):
        want = np.geomspace(start, stop, num)
        sign = np.sign(start)
        lo, hi = np.log10(start / sign), np.log10(stop / sign)
        y = np.linspace(lo, hi, num)
    assert len(got) == len(want) == num
    same_logs = all(v == math.log10(x) if x > 0 else math.isnan(v)
                    for v, x in ((lo, start / sign), (hi, stop / sign)))
    for k, (g, w) in enumerate(zip(got, want)):
        assert type(g) is float
        with np.errstate(over="ignore"):
            same_power = np.power(10.0, y[k]) == cli._pow10(float(y[k]))
        if math.isnan(w):
            assert math.isnan(g)
        elif k in (0, num - 1) or (same_logs and same_power):
            assert g == w, k
        else:
            assert g == pytest.approx(w, rel=1e-12), k


@pytest.mark.parametrize("args", [(0.0, 5.0, 3), (5.0, 0.0, 3), (1.0, 5.0, -1)])
def test_geomspace_rejects_what_numpy_rejects(args):
    with pytest.raises(ValueError) as want:
        np.geomspace(*args)
    with pytest.raises(ValueError, match=re.escape(str(want.value))):
        cli._geomspace(*args)


def test_verify_paper_scale_array(tmp_path):
    # 70x70 at n=3 is the paper's ~1e4-ion array; the child reports its own
    # peak resident set, which one dense 10 080^2 byte matrix (101 MB) would
    # exceed.  It reads VmHWM: ru_maxrss also counts the pytest process's
    # resident set at fork, which can pass 100 MB late in the suite.
    script = ("import sys; from hexmbqc import cli; "
              "code = cli.dispatch(sys.argv[1:]); "
              "print(open('/proc/self/status').read().split('VmHWM:')[1].split()[0]); "
              "sys.exit(code)")
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", script, "verify", "--rows", "70",
                           "--cols", "70", "--n", "3", "--out", str(tmp_path)],
                          env=_cli_env(), capture_output=True, text=True, timeout=60)
    elapsed = time.perf_counter() - t0
    assert proc.returncode == 0, proc.stderr
    doc = json.loads((tmp_path / "verification.json").read_text())
    assert doc["verified"] is True
    assert (doc["sites"], doc["target_edges"]) == (10080, 28741)
    assert elapsed < 10.0
    peak_mb = int(proc.stdout.splitlines()[-1]) / 1024  # VmHWM is in kB
    assert peak_mb < 100.0


def test_lattice_roundtrip(tmp_path, capsys):
    code, out, _ = run(capsys, "lattice", "--rows", "7", "--cols", "7",
                       "--n", "2", "--out", str(tmp_path))
    assert code == 0
    doc = json.loads(out)
    assert doc["sites"] == 126 and doc["layers"] == 8
    on_disk = json.loads((tmp_path / "lattice.json").read_text())
    assert on_disk == doc
    full = json.loads((tmp_path / "lattice_full.json").read_text())
    assert len(full["sites"]) == 126


def test_schedule_then_verify_ok(tmp_path, capsys):
    code, out, _ = run(capsys, "schedule", "--rows", "3", "--cols", "3",
                       "--n", "2", "--out", str(tmp_path))
    assert code == 0
    assert json.loads(out)["rounds"] == 6
    assert json.loads(out)["prep_time_s"] == pytest.approx(6.6e-4)
    csv = (tmp_path / "schedule.csv").read_text().splitlines()
    assert csv[0] == "round,pair_count,duration_s"
    assert len(csv) == 7
    code, out, _ = run(capsys, "verify", "--schedule",
                       str(tmp_path / "schedule.json"), "--out", str(tmp_path))
    assert code == 0
    assert json.loads(out)["verified"] is True


def test_verify_detects_tampering(tmp_path, capsys):
    run(capsys, "schedule", "--rows", "3", "--cols", "3", "--out",
        str(tmp_path))
    doc = json.loads((tmp_path / "schedule.json").read_text())
    doc["rounds"][1] = doc["rounds"][1][1:]  # drop one CPHASE
    bad = tmp_path / "tampered.json"
    bad.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "verify", "--schedule", str(bad), "--out",
                       str(tmp_path))
    assert code == 2
    assert json.loads(out)["verified"] is False


def test_resources_paper_numbers(tmp_path, capsys):
    code, out, _ = run(capsys, "resources", "--bits", "640", "--wallclock",
                       "5min", "--out", str(tmp_path))
    assert code == 0
    doc = json.loads(out)
    assert doc["op_count"] == 8_388_608_000
    assert doc["required_op_time_s"] == pytest.approx(3.5762786865234374e-8)
    code, out, _ = run(capsys, "resources", "--wallclock", "5month", "--out",
                       str(tmp_path))
    assert json.loads(out)["required_op_time_s"] == pytest.approx(
        1.5e-3, rel=0.10)


def test_resources_divide_counts_past_float_range_exactly(tmp_path, capsys):
    # 32 * (10**103)**3 ops and 10**400 qubits were tracebacks converting
    # the count to float
    code, out, _ = run(capsys, "resources", "--bits", str(10**103), "--out", str(tmp_path))
    assert (code, json.loads(out)["required_op_time_s"]) == (0, 4.1094e-304)
    code, out, _ = run(capsys, "resources", "--n-qubits", str(10**309), "--t-meas", "1e-300",
                       "--out", str(tmp_path / "exact"))
    assert (code, json.loads(out)["storage_error"]) == (0, 1e8)
    code, out, err = run(capsys, "resources", "--n-qubits", str(10**400),
                         "--out", str(tmp_path / "inf"))
    assert (code, out) == (2, "")
    assert "resources.json holds a result past float range" in err
    assert not (tmp_path / "inf").exists()


def test_resources_refuses_an_op_count_too_long_to_write(tmp_path, capsys):
    # 32 * bits**3 for a 1 500-digit bits has more digits than Python turns
    # into a str; that is a validation error, not a NaN
    limit = sys.get_int_max_str_digits()
    bits = 10 ** (limit // 3 + 1)
    code, out, err = run(capsys, "resources", "--bits", str(bits), "--out", str(tmp_path / "x"))
    assert (code, out) == (1, "")
    assert err == (f"error: resources.json: an integer of more than {limit} digits "
                   "cannot be written\n")
    assert not (tmp_path / "x").exists()
    code, out, _ = run(capsys, "resources", "--bits", str(bits // 100), "--out", str(tmp_path))
    assert (code, json.loads(out)["op_count"]) == (0, 32 * (bits // 100) ** 3)


def test_duration_parser():
    assert cli.parse_duration("300") == 300.0
    assert cli.parse_duration(300) == 300.0
    assert cli.parse_duration("5min") == 300.0
    assert cli.parse_duration("2 h") == 7200.0
    assert cli.parse_duration("10ns") == pytest.approx(1e-8)
    assert cli.parse_duration("1.5us") == pytest.approx(1.5e-6)
    assert cli.parse_duration("2day") == 172800.0
    assert cli.parse_duration("5month") == 5 * resources.MONTH_SECONDS
    for bad in ("5parsec", "", "-3s", "0s", "1e999", "1e303 month", math.inf, math.nan):
        with pytest.raises(ValueError):
            cli.parse_duration(bad)


def test_mbqc_deterministic_runs(tmp_path, capsys):
    pat = linear_cluster_pattern((0.3, -0.7, 1.1, 0.2))
    doc = mbqc.pattern_to_dict(5, CHAIN_EDGES, pat)
    pfile = tmp_path / "pattern.json"
    pfile.write_text(json.dumps(doc))
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    code, stdout_a, _ = run(capsys, "mbqc", "--pattern", str(pfile), "--seed",
                            "7", "--out", str(out_a))
    assert code == 0
    code, stdout_b, _ = run(capsys, "mbqc", "--pattern", str(pfile), "--seed",
                            "7", "--out", str(out_b))
    assert code == 0
    assert stdout_a == stdout_b
    assert (out_a / "mbqc_result.json").read_bytes() == \
        (out_b / "mbqc_result.json").read_bytes()
    # seeds 0 and 1 draw different outcome strings for this pattern
    _, s0, _ = run(capsys, "mbqc", "--pattern", str(pfile), "--seed", "0",
                   "--out", str(tmp_path / "s0"))
    _, s1, _ = run(capsys, "mbqc", "--pattern", str(pfile), "--seed", "1",
                   "--out", str(tmp_path / "s1"))
    assert json.loads(s0)["outcomes"] == [1, 0, 0, 0]
    assert json.loads(s1)["outcomes"] == [1, 1, 0, 1]


def test_ionize_modes(tmp_path, capsys):
    code, out, _ = run(capsys, "ionize", "rates", "--irradiance", "1e9",
                       "--out", str(tmp_path))
    assert code == 0
    doc = json.loads(out)
    assert doc["rate_s_per_s"] == pytest.approx(1763955224.8878448)
    csv = (tmp_path / "rates.csv").read_text().splitlines()
    assert csv[0] == "irradiance_w_cm2,rate_s,rate_d,ratio"
    assert len(csv) == 26
    code, out, _ = run(capsys, "ionize", "resonances", "--out", str(tmp_path))
    hits = {(h["level"], h["photons"]) for h in json.loads(out)["hits"]}
    assert hits == {("4P1/2", 1), ("5S1/2", 2), ("6P1/2", 3), ("6P3/2", 3)}
    code, out, _ = run(capsys, "ionize", "quadrupole", "--t-pulse", "2e-9",
                       "--out", str(tmp_path))
    assert json.loads(out)["irradiance_w_cm2"] == pytest.approx(
        297560007.9349334)
    code, out, _ = run(capsys, "ionize", "raman", "--out", str(tmp_path))
    assert json.loads(out)["irradiance_w_cm2"] == pytest.approx(
        44761.904761904756)


def test_electron_cheap_modes(tmp_path, capsys):
    code, out, _ = run(capsys, "electron", "classical", "--t", "1.5e-9",
                       "--omega-e", "2e9", "--out", str(tmp_path))
    assert code == 0
    assert json.loads(out)["x_m"] == pytest.approx(3.5062562245934656e-05)
    code, out, _ = run(capsys, "electron", "mathieu", "--q", "0.9", "--out",
                       str(tmp_path))
    assert json.loads(out)["stable"] is True
    code, out, _ = run(capsys, "electron", "mathieu", "--q", "0.92", "--out",
                       str(tmp_path))
    assert json.loads(out)["stable"] is False
    code, out, _ = run(capsys, "electron", "timescale", "--out", str(tmp_path))
    doc = json.loads(out)
    assert doc["formula_s"] == pytest.approx(2.358702968839818e-11)
    assert doc["reference_s"] == pytest.approx(5e-10)
    # derived q from drive parameters
    code, out, _ = run(capsys, "electron", "mathieu", "--v-rf", "3.0",
                       "--r0", "0.5e-3", "--mass", str(9.1093837015e-31),
                       "--out", str(tmp_path))
    assert code == 0


def test_electron_propagate_low_res(tmp_path, capsys):
    cfg = {"electron": {"propagate": {"snapshot_times": [5e-11]}}}
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps(cfg))
    code, out, _ = run(capsys, "electron", "propagate", "--points-x", "128",
                       "--points-y", "64", "--hbar-scale", "640",
                       "--t-final", "1e-10", "--dt", "2e-13",
                       "--config", str(cfg_file), "--out", str(tmp_path))
    assert code == 0
    doc = json.loads(out)
    assert 0.0 <= doc["total_captured"] <= 1.0
    trace = (tmp_path / "trace.csv").read_text().splitlines()
    assert trace[0] == "t_ns,p_detector_1,p_detector_2,p_total,norm_remaining"
    assert (tmp_path / "psi2_000.txt").exists()
    header = (tmp_path / "psi2_000.txt").read_text().splitlines()[0]
    assert header.startswith("# nx=128 ny=64")


def test_electron_propagate_without_detectors(tmp_path, capsys):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"electron": {"propagate": {"detectors": []}}}))
    code, _, _ = run(capsys, "electron", "propagate", "--points-x", "64",
                     "--points-y", "32", "--hbar-scale", "640", "--t-final", "2e-11",
                     "--dt", "2e-13", "--config", str(cfg_file), "--out", str(tmp_path))
    assert code == 0
    header, *rows = (tmp_path / "trace.csv").read_text().splitlines()
    assert header == "t_ns,,p_total,norm_remaining"
    assert rows and all(row.count(",") == header.count(",") for row in rows)


def test_dump_config_idempotent(tmp_path, capsys):
    code, first, _ = run(capsys, "electron", "propagate", "--dump-config")
    assert code == 0
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(first)
    code, second, _ = run(capsys, "electron", "propagate", "--config",
                          str(cfg_file), "--dump-config")
    assert code == 0
    assert first == second


def test_empty_config_is_all_defaults(tmp_path, capsys):
    empty = tmp_path / "empty.json"
    empty.write_text("")
    code, with_cfg, _ = run(capsys, "schedule", "--config", str(empty),
                            "--dump-config")
    assert code == 0
    _, plain, _ = run(capsys, "schedule", "--dump-config")
    assert with_cfg == plain


def test_flag_overrides_config(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"lattice": {"rows": 5, "cols": 6}}))
    code, out, _ = run(capsys, "lattice", "--config", str(cfg), "--rows", "2",
                       "--dump-config")
    assert code == 0
    eff = json.loads(out)["lattice"]
    assert eff["rows"] == 2 and eff["cols"] == 6


def test_validation_exit_codes(tmp_path, capsys):
    assert run(capsys, "bogus")[0] == 1
    assert run(capsys, "lattice", "--rows", "0")[0] == 1
    assert run(capsys, "resources", "--wallclock", "5parsec")[0] == 1
    assert run(capsys, "electron", "mathieu")[0] == 1  # needs q or drive
    code, _, err = run(capsys, "electron", "mathieu", "--a", "1e10", "--q", "0")
    assert code == 1 and "a=10000000000.0, q=0.0" in err  # past the step budget
    code, _, err = run(capsys, "electron", "mathieu", "--v-rf", "1", "--r0", "1e200")
    assert code == 1 and "r0=1e+200" in err and "omega_rf=" in err  # r0**2 overflows
    assert run(capsys, "mbqc")[0] == 1  # needs a pattern file
    assert run(capsys, "mbqc", "--pattern", str(tmp_path / "nope.json"))[0] == 1
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"lattice": {"rowz": 3}}))
    code, _, err = run(capsys, "lattice", "--config", str(cfg))
    assert code == 1
    assert "rowz" in err
    cfg.write_text(json.dumps({"garbage": {}}))
    assert run(capsys, "lattice", "--config", str(cfg))[0] == 1


@pytest.mark.parametrize("argv, code, needle", [
    (["schedule", "--t-gate", "nan"], 1, "--t-gate must be a finite number"),
    (["electron", "classical", "--omega-e", "nan"], 1, "--omega-e must be a finite number"),
    (["electron", "classical", "--t", "1e300"], 2, "t=1e+300"),
    (["electron", "propagate", "--dt", "nan"], 1, "--dt must be a finite number"),
    (["schedule", "--config", "{cfg}"], 1, "schedule.t_gate must be a finite number"),
    (["schedule", "--t-gate", "1e308", "--t-shuttle", "1e308"], 2,
     "t_gate=1e+308, t_shuttle=1e+308"),
    (["schedule", "--t-gate", "1e308", "--t-shuttle", "1e307"], 2,
     "t_gate=1e+308, t_shuttle=1e+307"),
    (["resources", "--wallclock", "1e999"], 1, "wallclock: duration '1e999' is past float range"),
    (["electron", "propagate", "--dt", "5e-324"], 1, "t_final/dt = 3e-09/5e-324"),
    (["electron", "propagate", "--t-final", "1e300", "--dt", "1e-300"], 1,
     "t_final/dt = 1e+300/1e-300"),
], ids=["schedule t_gate nan", "classical omega_e nan", "classical t overflow",
        "propagate dt nan", "config t_gate nan", "schedule round overflow",
        "schedule total overflow", "resources wallclock overflow",
        "propagate subnormal dt", "propagate step count overflow"])
def test_non_finite_values_exit_without_artifacts(tmp_path, capsys, argv, code, needle):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"schedule": {"t_gate": math.nan}}))  # json writes NaN
    out = tmp_path / "out"
    got, stdout, err = run(capsys, *(a.format(cfg=cfg) for a in argv), "--out", str(out))
    assert (got, needle in err) == (code, True), err
    assert stdout == ""
    assert not out.exists()


@pytest.mark.parametrize("argv, needle", [
    (["ionize", "rates", "--points", "100000000"], "points=100000000"),
    (["lattice", "--rows", "100000"], "rows x cols = 100000 x 4"),
    (["schedule", "--rows", "400", "--cols", "400"], "rows x cols = 400 x 400"),
    (["ionize", "resonances", "--max-photons", "100000000"], "max_photons=100000000"),
    (["electron", "propagate", "--t-final", "18446744073709551616"],
     "t_final/dt = 1.8446744073709552e+19/1e-13"),
    (["electron", "propagate", "--points-x", "16384"], "points_x=16384"),
    (["electron", "propagate", "--points-y", "1000000000"], "points_y=1000000000"),
], ids=["rates points", "lattice rows", "schedule sites", "resonances max_photons",
        "propagate steps", "propagate points_x", "propagate points_y"])
def test_work_past_its_limit_exits_1_at_once(tmp_path, capsys, argv, needle):
    # each ran out of memory or time before the flags that set the amount of
    # work had limits
    out = tmp_path / "out"
    t0 = time.perf_counter()
    code, stdout, err = run(capsys, *argv, "--out", str(out))
    assert time.perf_counter() - t0 < 1.0
    assert (code, stdout, needle in err) == (1, "", True), err
    assert "past the limit" in err or "must lie in" in err
    assert not out.exists()


def test_verify_110448_sites_under_a_2_gb_address_space_cap(tmp_path):
    # eleven times the paper's array: verify's memory grows with sites plus
    # edges, not with sites squared, so it fits the cap
    code = ("import resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (2 * 10**9, 2 * 10**9))\n"
            "from hexmbqc import cli\n"
            "sys.exit(cli.main(sys.argv[1:]))\n")
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-c", code, "verify", "--rows", "234", "--cols", "234",
         "--n", "1", "--out", str(out)],
        env=_cli_env(), capture_output=True, text=True, timeout=60)
    assert (proc.returncode, "Traceback" in proc.stderr) == (0, False), proc.stderr
    doc = json.loads((out / "verification.json").read_text())
    assert (doc["verified"], doc["sites"]) == (True, 110_448)


def test_verify_300x300_n3_under_a_400_mb_address_space_cap(tmp_path):
    # 181 200 sites: the audit keeps one byte per partner slot and one round
    # stamp per ion, so the lattice and the schedule set the peak
    code = ("import resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (400 * 10**6, 400 * 10**6))\n"
            "from hexmbqc import cli\n"
            "sys.exit(cli.main(sys.argv[1:]))\n")
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-c", code, "verify", "--rows", "300", "--cols", "300",
         "--n", "3", "--out", str(out)],
        env=_cli_env(), capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    doc = json.loads((out / "verification.json").read_text())
    assert (doc["verified"], doc["sites"]) == (True, 181_200)


def test_momentum_past_nyquist_exits_1_without_numpy_warnings(tmp_path):
    # k0 is infinite at --v0 1e308: the check runs before the packet is built
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"electron": {"propagate": {
        "points_x": 64, "points_y": 32, "hbar_scale": 640.0, "dt": 2e-13, "t_final": 2e-11}}}))
    proc = subprocess.run(
        [sys.executable, "-m", "hexmbqc.cli", "electron", "propagate", "--v0", "1e308",
         "--config", str(cfg), "--out", str(tmp_path / "out")],
        env=_cli_env(), capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1
    assert "Nyquist" in proc.stderr
    assert "RuntimeWarning" not in proc.stderr and "Traceback" not in proc.stderr
    assert proc.stdout == "" and not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv, artifact, inputs", [
    (["lattice", "--d", "1e308"], "lattice_full.json", "d=1e+308"),
    (["ionize", "rates", "--i-max", "1e300"], "rates.csv", "i_max=1e+300"),
    (["ionize", "rates", "--irradiance", "1e300"], "rates.json", "irradiance=1e+300"),
    (["resources", "--t-meas", "1e300", "--t-coh", "1e-300"], "resources.json",
     "t_meas=1e+300, t_coh=1e-300"),
    (["ionize", "quadrupole", "--t-pulse", "1e-300"], "quadrupole.json", "t_pulse=1e-300"),
    (["electron", "timescale", "--omega-rf", "1e-320"], "timescale.json", "omega_rf=1e-320"),
], ids=["lattice d", "rates i_max", "rates irradiance", "resources t_meas", "quadrupole t_pulse",
        "timescale omega_rf"])
def test_results_past_float_range_exit_2_writing_nothing(tmp_path, capsys, argv, artifact,
                                                         inputs):
    # finite inputs whose results pass float range; "lattice d" and "rates i_max"
    # fail in their second artifact, after the first rendered cleanly
    out = tmp_path / "out"
    code, stdout, err = run(capsys, *argv, "--out", str(out))
    assert (code, stdout) == (2, "")
    assert f"error: {artifact} holds a result past float range" in err
    assert inputs in err, err
    assert not out.exists()


def test_artifact_writers_refuse_non_finite_numbers(tmp_path, capsys, monkeypatch):
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(cli._NonFinite, match="doc.json"):
            cli._render("doc.json", {"x": bad})
        with pytest.raises(cli._NonFinite, match="rows.csv"):
            cli._render("rows.csv", ("a,b", ["1.0,2.0", f"3.0,{bad}"]))
        # through dispatch: a finite artifact rendered first is not written either
        for name, content in (("doc.json", {"x": bad}),
                              ("rows.csv", ("a,b", ["1.0,2.0", f"3.0,{bad}"]))):
            monkeypatch.setitem(cli._HANDLERS, ("lattice", None),
                                lambda args, eff, name=name, content=content: (
                                    {"ok": 1.0}, {"good.json": {"ok": 1.0}, name: content}))
            code, stdout, err = run(capsys, "lattice", "--out", str(tmp_path / "out"))
            assert (code, stdout) == (2, "") and name in err
    assert list(tmp_path.iterdir()) == []


def _json_or_error(dumps, value):
    try:
        return dumps(value)
    except (ValueError, TypeError) as exc:
        return type(exc)


def _reference_dumps(value):
    return json.dumps(value, sort_keys=True, indent=2, allow_nan=False)


finite = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from((-0.0, 1e-320))
big_ints = st.integers() | st.sampled_from((2**63, 2**64, -2**64 - 1, 2**200))
int_rows = st.lists(big_ints, max_size=4)
mixed_rows = st.lists(big_ints | st.booleans() | finite, max_size=4)
rows = st.one_of(int_rows, int_rows.map(tuple), mixed_rows, mixed_rows.map(tuple))
json_scalars = st.none() | st.booleans() | big_ints | finite | st.text(max_size=6)
number_keys = st.integers() | st.floats(allow_nan=False) | st.booleans()
json_trees = st.recursive(
    json_scalars | rows | st.lists(rows, max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4)
    | st.dictionaries(number_keys, inner, max_size=3), max_leaves=24)


@settings(max_examples=500, deadline=None)
@given(json_trees)
@example([[3, 7], [2, 9]]).via("a schedule's gates")
@example([(3, 7), (2, 9)]).via("rows as tuples")
@example([[1, True], [2, 3]]).via("a bool among the ints")
@example([[1, 2.0], [2, 3]]).via("a float among the ints")
@example([[1, 2], [3], [], [4, [5, 6]]]).via("ragged, empty and nested rows")
@example({"\u00e9\x00\u2028\U0001f600": ["\x1f\ud800", "\u2603"]}).via("escapes")
@example([2**64, -0.0, 1e-320, 5e-324, 1e308]).via("big ints, signed zero, subnormals")
@example({None: 1, True: 2}).via("keys that cannot be sorted together")
@example({1: "a", 2.5: "b", False: "c"}).via("number keys")
@example(10**5000).via("an int past the digit limit")
def test_json_writer_matches_json_dumps(value):
    assert _json_or_error(cli._dumps, value) == _json_or_error(_reference_dumps, value)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("place", ["value", "row", "key", "deep"])
def test_json_writer_refuses_non_finite_numbers_as_json_does(bad, place):
    doc = {"value": {"x": bad}, "row": {"rounds": [[1, 2], [3, bad]]},
           "key": {"k": {bad: 1}}, "deep": {"a": [{"b": [(1, (bad,))]}]}}[place]
    with pytest.raises(ValueError, match="not JSON compliant"):
        _reference_dumps(doc)
    with pytest.raises(ValueError, match="not JSON compliant"):
        cli._dumps(doc)
    with pytest.raises(cli._NonFinite, match="doc.json"):
        cli._render("doc.json", doc)


# sha256 of stdout and of every artifact, taken before handlers returned their
# artifacts; these commands use only correctly rounded IEEE operations, so the
# digests hold on any libm or numpy build
GOLDEN = [
    (["lattice", "--rows", "7", "--cols", "7", "--n", "2"], {
        "stdout": "9337271c3ebd69eb8117d265ce1ffc1973204a1565bddea51e8ff546ab5d06fc",
        "lattice.json": "9337271c3ebd69eb8117d265ce1ffc1973204a1565bddea51e8ff546ab5d06fc",
        "lattice_full.json": "b90bbafe55a29b76372ae26c09db93943516672d89a64c9608bca509d7a37d24"}),
    (["schedule", "--rows", "4", "--cols", "4", "--periodic"], {
        "stdout": "4998286c73a63df955b000ab5d61105a3456dec3873fcf04003687f469891837",
        "schedule.csv": "9eb25c3c17544a6ede0a50f41ef5e1ea4b66feb4e6c5021250bf1e9919894a82",
        "schedule.json": "d8289ebd7d363d0a55a317307a8e5861a3b30a0de21782ab774e40f9aaf4a969"}),
    (["schedule", "--rows", "70", "--cols", "70", "--n", "3"], {
        "stdout": "944ebaf372948bf20aca5293c159b85ec62b4634f08f9f547be48e5aa15d74ba",
        "schedule.csv": "cab49f2af868d2641f16ad92ae0d33230ec2350f6642ef00b5369b41318b392a",
        "schedule.json": "dfc064368048653b5972a48a01b9a67982b549365c9eb299be4be1e90f05df11"}),
    (["schedule", "--rows", "70", "--cols", "70", "--n", "1", "--periodic"], {
        "stdout": "d87f83b4b6a0d2561531cdd6bb37723ec09b1e80032e0c8045d8d6da19cbd70c",
        "schedule.csv": "0856b5ea59f0ed08a61284d010bef0d778d1afb556086e965393ca48221c562e",
        "schedule.json": "c43145faa9eabde7d765c81044b833e539444bb77995714a7af24328ffcb7e10"}),
    (["schedule", "--rows", "70", "--cols", "70", "--n", "2", "--periodic"], {
        "stdout": "cf4f48125657a06b73b9eefce873d5831e538e9208c830247c2128772e4b3499",
        "schedule.csv": "bc9b7e74550060f9b38430ab9e53b50098ddb713136731aece32a25d38c6c868",
        "schedule.json": "42891d240dc3077518c5a338ac7979778e12e7187a8a8f58ee3a86750ddef86f"}),
    (["lattice", "--rows", "12", "--cols", "9", "--n", "3"], {
        "stdout": "c2ed6fc2d6bae0f90ca58c1556c8be80341319ef7b6e3002601028d64329c4ee",
        "lattice.json": "c2ed6fc2d6bae0f90ca58c1556c8be80341319ef7b6e3002601028d64329c4ee",
        "lattice_full.json": "a4d6da4242523605c25819f043a73a04391cd902cb3501063d4dfdd473caae6b"}),
    (["verify", "--rows", "8", "--cols", "8", "--n", "2", "--periodic"], {
        "stdout": "c5963815eded543af7dfae6882912efe1602cb5e04b9b02ca6ce2aa9a057c692",
        "verification.json": "c5963815eded543af7dfae6882912efe1602cb5e04b9b02ca6ce2aa9a057c692"}),
    (["verify", "--rows", "3", "--cols", "3", "--n", "2"], {
        "stdout": "1893b52bd2f0b12f53dd7bc17575e61462eed23803d0414a0e143c5479b9fe94",
        "verification.json": "1893b52bd2f0b12f53dd7bc17575e61462eed23803d0414a0e143c5479b9fe94"}),
    (["ionize", "resonances"], {
        "stdout": "fd44632354eeb6d9afbe22ed86cd16cbf6a292e7493e7df691fa918ad39d3145",
        "resonances.json": "fd44632354eeb6d9afbe22ed86cd16cbf6a292e7493e7df691fa918ad39d3145"}),
    (["ionize", "quadrupole"], {
        "stdout": "f7b58b80ed5f467e19898476b42dce23e5b56577aeb2ac5b3f281084d80c6b3a",
        "quadrupole.json": "f7b58b80ed5f467e19898476b42dce23e5b56577aeb2ac5b3f281084d80c6b3a"}),
    (["ionize", "raman"], {
        "stdout": "43f1b89359913876d16864c4707ed081436935c8d02d2bfc37ee212f853cb369",
        "raman.json": "43f1b89359913876d16864c4707ed081436935c8d02d2bfc37ee212f853cb369"}),
    (["electron", "timescale"], {
        "stdout": "efb206cd9ed30e36d7155a005e90e1409d74e11acd63f0cf1d7229b54ca22d21",
        "timescale.json": "efb206cd9ed30e36d7155a005e90e1409d74e11acd63f0cf1d7229b54ca22d21"}),
    (["resources"], {
        "stdout": "a6cdb132faa9effeeed21717f33aaba5f73e55a996b28b85a672bd005a3f6336",
        "resources.json": "a6cdb132faa9effeeed21717f33aaba5f73e55a996b28b85a672bd005a3f6336"}),
]


@pytest.mark.parametrize("argv, digests", GOLDEN, ids=[" ".join(a) for a, _ in GOLDEN])
def test_outputs_match_golden_digests(tmp_path, capsys, argv, digests):
    code, stdout, _ = run(capsys, *argv, "--out", str(tmp_path))
    got = {"stdout": hashlib.sha256(stdout.encode()).hexdigest()}
    got.update((f.name, hashlib.sha256(f.read_bytes()).hexdigest())
               for f in tmp_path.iterdir())
    assert (code, got) == (0, digests)


def test_config_negative_dt_names_field(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"electron": {"propagate": {"dt": -1e-13}}}))
    code, _, err = run(capsys, "electron", "propagate", "--config", str(cfg))
    assert code == 1
    assert "dt" in err


def test_help_exits_zero_and_documents_defaults(capsys):
    code = cli.main(["resources", "--help"])
    out = capsys.readouterr().out
    assert code == 0
    assert "defaults:" in out
    assert '"bits": 640' in out


# sha256 of ``hexmbqc --help`` and of each ``hexmbqc <command> --help`` at 80
# columns, taken while every process still built all seven subparsers;
# verify's was retaken when it lost ``--t-gate`` and ``--t-shuttle``
HELP = {
    (): "acb68761023c9b30644f209edbd8bf3dc8ca0e62804524dc73bd66f7eb9a5154",
    ("lattice",): "461da1f1675892f873d463d4edefa1b30b60bb364f5fc31229569ddd7be4b34f",
    ("schedule",): "a952f81dca4f6770d2c347c345838ce6e16cd0d3b1e6d587eab040014c86006a",
    ("verify",): "432afc8ccd7cba7ccb359a1fa13cb4cf1d61bf4b87a37fd578cbb34d5accbbcb",
    ("mbqc",): "e708c08f8bc4e73cc761c787d495817b8fe3db3951eb12a84f3a67a881ac4227",
    ("ionize",): "6efcc6ddbaf7495fdba226df44d2d44267060cc16f4bb42e5768b572b93c2bfa",
    ("electron",): "1d6e4d1e551773416699304427d61cda82d2a5c2fa0afdefb06bfc6052353828",
    ("resources",): "6d8fb8c5d7a2a463205cfb7040d34d60819260af696f52c1e4c7529424d30bed",
}


@pytest.mark.parametrize("argv", sorted(HELP), ids=lambda a: " ".join(a) or "top")
def test_help_matches_golden_digest(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    code, out, _ = run(capsys, *argv, "--help")
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == (0, HELP[argv])


def test_a_run_leaves_every_table_as_it_was(tmp_path, capsys):
    # the tables are built once per process and shared by every run in it
    before = json.dumps({c: cli._defaults(c) for c in cli._HELP}, sort_keys=True)
    _with_config(tmp_path, capsys, {"schedule": {"rows": 3, "periodic": True}},
                 "schedule", "--cols", "5", "--t-gate", "2e-5", "--out", str(tmp_path))
    run(capsys, "electron", "propagate", "--dt", "1e-12", "--no-static", "--dump-config")
    run(capsys, "ionize", "rates", "--points", "3", "--out", str(tmp_path))
    after = json.dumps({c: cli._defaults(c) for c in cli._HELP}, sort_keys=True)
    assert after == before


def test_schedule_csv_is_deterministic(tmp_path, capsys):
    for sub in ("a", "b"):
        run(capsys, "schedule", "--rows", "4", "--cols", "4", "--n", "2",
            "--out", str(tmp_path / sub))
    assert (tmp_path / "a" / "schedule.csv").read_bytes() == \
        (tmp_path / "b" / "schedule.csv").read_bytes()
    assert (tmp_path / "a" / "schedule.json").read_bytes() == \
        (tmp_path / "b" / "schedule.json").read_bytes()


def test_math_convenience():
    # duration grammar accepts scientific notation
    assert cli.parse_duration("2.5e-9 s") == pytest.approx(2.5e-9)
    assert cli.parse_duration("1e3ms") == pytest.approx(1.0)
    assert math.isclose(cli.parse_duration("1mo"), resources.MONTH_SECONDS)


# --- verify checks the schedule's structure -------------------------------

def _schedule_3x3(tmp_path, capsys):
    run(capsys, "schedule", "--rows", "3", "--cols", "3", "--out", str(tmp_path))
    return json.loads((tmp_path / "schedule.json").read_text())


def _verify_doc(tmp_path, capsys, doc):
    bad = tmp_path / "edited.json"
    bad.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "verify", "--schedule", str(bad), "--out",
                       str(tmp_path / "ver"))
    on_disk = json.loads((tmp_path / "ver" / "verification.json").read_text())
    assert json.loads(out) == on_disk
    return code, on_disk


def test_verify_rejects_seven_rounds(tmp_path, capsys):
    doc = _schedule_3x3(tmp_path, capsys)
    doc["rounds"] = [[g for rnd in doc["rounds"] for g in rnd]] + [[]] * 6
    assert len(doc["rounds"][0]) == 58
    code, ver = _verify_doc(tmp_path, capsys, doc)
    assert code == 2
    assert ver["verified"] is False
    assert ver["failure"] == "7 rounds, expected 6"


def test_verify_rejects_round_that_is_not_a_matching(tmp_path, capsys):
    doc = _schedule_3x3(tmp_path, capsys)
    rounds = doc["rounds"]
    rounds[0], rounds[2] = rounds[0] + rounds[2], []  # u and v sweeps share ions
    code, ver = _verify_doc(tmp_path, capsys, doc)
    assert code == 2
    assert ver["verified"] is False
    assert ver["failure"].startswith("round 1 (intra-u-even): ion ")


def _corrupt_2x2(doc, corruption):
    """Edit the 16-site schedule ``doc`` in place; the one gate edited."""
    rounds = doc["rounds"]
    listed = {tuple(sorted(g)) for rnd in rounds for g in rnd}
    if corruption == "dropped":
        return rounds[3].pop(1)
    if corruption == "not a cluster edge":
        gate = next((a, b) for a in range(16) for b in range(a + 1, 16)
                    if (a, b) not in listed)
        rounds[5].append(list(gate))
        return gate
    rounds[1].append(rounds[0][2])  # listed twice: the two CZs cancel
    return rounds[0][2]


@pytest.mark.parametrize("corruption", ["dropped", "not a cluster edge", "listed twice"])
def test_verify_names_the_failing_stabilizers(tmp_path, capsys, corruption):
    """verify names the K_a that fail, which are the edited gate's endpoints
    and the ones the statevector oracle finds with expectation below 1;
    ``failure`` is the edge-set oracle's message."""
    run(capsys, "schedule", "--rows", "2", "--cols", "2", "--n", "2", "--out", str(tmp_path))
    doc = json.loads((tmp_path / "schedule.json").read_text())
    gate = _corrupt_2x2(doc, corruption)
    code, ver = _verify_doc(tmp_path, capsys, doc)

    assign = lattice.decompose_sublattices(lattice.build_hex_array(2, 2, 1.0), 2)
    target = lattice.cluster_edges(assign)
    assert (code, ver["verified"], ver["sites"]) == (2, False, 16)
    assert ver["failure"] == check_rounds(doc["rounds"], target)
    named = ver["failing_stabilizers"]
    assert named["count"] == 2
    layers = reference_layers(assign)
    assert named["first"] == [{"site": s, "layer": layers[s], "coord": list(assign.coord(s))}
                              for s in sorted(gate)]
    psi = statevector_oracle([g for rnd in doc["rounds"] for g in rnd], 16)
    nbrs = {a: sorted({b for e in target if a in e for b in e} - {a}) for a in range(16)}
    oracle = [a for a in range(16) if pauli_expectation(psi, [a], nbrs[a]) < 1 - 1e-9]
    assert oracle == sorted(gate)


def test_verify_names_the_first_five_failing_stabilizers(tmp_path, capsys):
    doc = _schedule_3x3(tmp_path, capsys)
    dropped = [doc["rounds"][0].pop() for _ in range(3)]  # a matching: six endpoints
    code, ver = _verify_doc(tmp_path, capsys, doc)
    assert code == 2 and ver["failure"].startswith("cluster edge ")
    ends = sorted(q for gate in dropped for q in gate)
    assert ver["failing_stabilizers"]["count"] == 6
    assert [f["site"] for f in ver["failing_stabilizers"]["first"]] == ends[:5]


@pytest.mark.parametrize("gate", [[0, 10**6], [-1, 0], [4, 4]])
def test_verify_with_a_gate_off_the_array_names_no_stabilizer(tmp_path, capsys, gate):
    doc = _schedule_3x3(tmp_path, capsys)
    doc["rounds"][5].append(gate)
    code, ver = _verify_doc(tmp_path, capsys, doc)
    assert code == 2
    assert ver["failure"].endswith("is not a cluster edge")
    assert "failing_stabilizers" not in ver


# --- pattern and schedule documents are validated at the boundary ----------

def _chain_doc():
    pat = linear_cluster_pattern((0.3, -0.7, 1.1, 0.2))
    doc = mbqc.pattern_to_dict(5, CHAIN_EDGES, pat)
    doc["input"] = {"qubits": [0], "amplitudes": [[0.6, 0.0], [0.0, 0.8]]}
    return doc


def _first_angle(angle):
    steps = _chain_doc()["steps"]
    return {"steps": [{**steps[0], "angle": angle}, *steps[1:]]}


BAD_PATTERNS = {
    "negative endpoint": ({"edges": [[0, 1], [1, 2], [2, 3], [3, -1]]},
                          "edge (3, -1) has an endpoint outside 0..4"),
    "endpoint past n": ({"edges": [[0, 1], [1, 2], [2, 3], [3, 5]]},
                        "edge (3, 5) has an endpoint outside 0..4"),
    "float endpoint": ({"edges": [[0, 1.5], [1, 2], [2, 3], [3, 4]]},
                       "edge endpoint must be an integer, got 1.5"),
    "bare amplitudes": ({"input": {"qubits": [0], "amplitudes": [1, 0]}},
                        "input.amplitudes must be"),
    "NaN angle": (_first_angle(math.nan), "step 0 angle must be a finite number, got nan"),
    "Infinity angle": (_first_angle(math.inf),
                       "step 0 angle must be a finite number, got inf"),
    "true angle": (_first_angle(True), "step 0 angle must be a finite number, got True"),
    "string angle": (_first_angle("1.5"),
                     "step 0 angle must be a finite number, got '1.5'"),
    "huge angle": (_first_angle(10**400), "int too large to convert to float"),
    "amplitude count": ({"input": {"qubits": [0], "amplitudes": [[1.0, 0.0]]}},
                        "1 input qubits take 2 amplitudes, got 1"),
    "qubit count": ({"n": mbqc.MAX_TOTAL_QUBITS + 1},
                    f"pattern has {mbqc.MAX_TOTAL_QUBITS + 1} qubits, past the limit"),
    "live width": ({"n": 21, "edges": [[a, b] for a in range(21) for b in range(a)],
                    "outputs": list(range(4, 21)), "corrections": []},
                   "step 0 needs qubit 20 live with 20 others, past the limit of 20"),
}


@pytest.mark.parametrize("case", sorted(BAD_PATTERNS))
def test_malformed_pattern_exits_1(tmp_path, capsys, case):
    change, message = BAD_PATTERNS[case]
    pfile = tmp_path / "pattern.json"
    pfile.write_text(json.dumps({**_chain_doc(), **change}))
    code, _, err = run(capsys, "mbqc", "--pattern", str(pfile), "--out", str(tmp_path))
    assert code == 1
    assert message in err


def test_negative_seed_exits_1_naming_it(tmp_path, capsys):
    pfile = tmp_path / "pattern.json"
    pfile.write_text(json.dumps(_chain_doc()))
    code, out, err = run(capsys, "mbqc", "--pattern", str(pfile), "--seed", "-1",
                         "--out", str(tmp_path / "flag"))
    assert (code, out) == (1, "")
    assert "seed must be a non-negative integer, got -1" in err
    code, out, err = _with_config(tmp_path, capsys, {"seed": -7}, "mbqc", "--pattern",
                                  str(pfile), "--out", str(tmp_path / "config"))
    assert (code, out) == (1, "")
    assert "seed must be a non-negative integer, got -7" in err
    assert not (tmp_path / "flag").exists() and not (tmp_path / "config").exists()


@pytest.mark.parametrize("flags, config, named", [
    (("--rows", "9", "--cols", "9"), None, "--rows 9 disagrees with the schedule file's "
                                           "lattice block, where rows is 4"),
    (("--n", "1"), None, "--n 1 disagrees"),
    (("--d", "2.5"), None, "--d 2.5 disagrees"),
    (("--periodic",), None, "--periodic True disagrees"),
    ((), {"rows": 9, "cols": 9}, "config.verify.rows 9 disagrees with the schedule file's "
                                 "lattice block, where rows is 4"),
], ids=["rows-cols", "n", "d", "periodic", "config-rows-cols"])
def test_verify_flag_contradicting_the_schedule_file_exits_1(tmp_path, capsys, flags, config,
                                                             named):
    run(capsys, "schedule", "--rows", "4", "--cols", "4", "--n", "2", "--out", str(tmp_path))
    path = str(tmp_path / "schedule.json")
    if config:
        (tmp_path / "cfg.json").write_text(json.dumps({"verify": config}))
        flags += ("--config", str(tmp_path / "cfg.json"))
    code, out, err = run(capsys, "verify", "--schedule", path, *flags,
                         "--out", str(tmp_path / "ver"))
    assert (code, out) == (1, "")
    assert named in err
    assert not (tmp_path / "ver").exists()
    # flags, and config values, that agree with the file pass
    code, out, _ = run(capsys, "verify", "--schedule", path, "--rows", "4", "--cols", "4",
                       "--n", "2", "--d", "1.0", "--no-periodic", "--out", str(tmp_path / "ok"))
    assert (code, json.loads(out)["sites"]) == (0, 48)
    code, out, _ = _with_config(tmp_path, capsys, {"verify": {
        "rows": 4, "cols": 4, "n": 2, "d": 1.0, "periodic": False}},
        "verify", "--schedule", path, "--out", str(tmp_path / "ok"))
    assert (code, json.loads(out)["sites"]) == (0, 48)


def test_verify_checks_a_config_that_can_be_read_only_once(tmp_path, capsys):
    # the contradiction check read the config file a second time, which a
    # pipe answers with nothing, so a contradicting piped config passed
    run(capsys, "schedule", "--rows", "4", "--cols", "4", "--n", "1", "--out", str(tmp_path))
    proc = subprocess.run(
        [sys.executable, "-m", "hexmbqc.cli", "verify", "--schedule",
         str(tmp_path / "schedule.json"), "--config", "/dev/stdin", "--out", str(tmp_path / "ver")],
        input=json.dumps({"verify": {"rows": 5}}), env=_cli_env(), capture_output=True,
        text=True, timeout=60)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert ("config.verify.rows 5 disagrees with the schedule file's lattice block, "
            "where rows is 4") in proc.stderr
    assert not (tmp_path / "ver").exists()


def test_electron_propagate_config_with_bad_sigma_v_and_sigma0_exits_1(tmp_path, capsys):
    for sigma_v in (-1.0, 0.0):
        code, _, err = _with_config(
            tmp_path, capsys, {"electron": {"propagate": {"sigma_v": sigma_v, "sigma0": 3e-6}}},
            "electron", "propagate", "--points-x", "64", "--points-y", "32",
            "--t-final", "2e-12", "--dt", "2e-13", "--out", str(tmp_path / "out"))
        assert code == 1
        assert "sigma_v must be positive and finite" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("change, message", [
    ({"lattice": [3, 3]}, "schedule.lattice must be a JSON object"),
    ({"rounds": 6}, "schedule.rounds must be"),
])
def test_malformed_schedule_exits_1(tmp_path, capsys, change, message):
    doc = {**_schedule_3x3(tmp_path, capsys), **change}
    bad = tmp_path / "edited.json"
    bad.write_text(json.dumps(doc))
    code, _, err = run(capsys, "verify", "--schedule", str(bad), "--out", str(tmp_path))
    assert code == 1
    assert message in err


# --- config values are typed once; flags come from the defaults table ------

def _with_config(tmp_path, capsys, doc, *argv):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    return run(capsys, *argv, "--config", str(cfg))


def test_config_string_for_bool_is_rejected(tmp_path, capsys):
    code, _, err = _with_config(tmp_path, capsys, {"schedule": {"periodic": "false"}},
                                "schedule", "--out", str(tmp_path))
    assert code == 1
    assert "config.schedule.periodic must be bool" in err


def test_config_list_for_int_is_rejected(tmp_path, capsys):
    code, _, err = _with_config(tmp_path, capsys, {"lattice": {"rows": [1]}},
                                "lattice", "--out", str(tmp_path))
    assert code == 1
    assert "config.lattice.rows must be int, got [1]" in err


def test_dump_config_reports_the_config_seed(tmp_path, capsys):
    code, out, _ = _with_config(tmp_path, capsys, {"seed": 7}, "mbqc", "--dump-config")
    assert code == 0
    assert json.loads(out)["seed"] == 7


def test_propagate_reads_omega_rf_flag(capsys):
    code, out, _ = run(capsys, "electron", "propagate", "--omega-rf", "1e8",
                       "--dump-config")
    assert code == 0
    assert json.loads(out)["electron"]["propagate"]["omega_rf"] == 1e8


def test_flag_of_another_mode_is_rejected(capsys):
    code, _, err = run(capsys, "electron", "classical", "--dt", "5")
    assert code == 1
    assert "--dt does not apply to electron classical" in err


def test_verify_takes_no_timing(tmp_path, capsys):
    # verify reads only the rounds' gates, so gate and shuttle times are
    # neither flags nor config keys of it
    code, _, err = run(capsys, "verify", "--t-gate", "1e-5", "--out", str(tmp_path / "flag"))
    assert code == 1 and "--t-gate" in err
    code, _, err = _with_config(tmp_path, capsys, {"verify": {"t_gate": 1e-5}}, "verify",
                                "--out", str(tmp_path / "config"))
    assert code == 1 and "unknown keys in 'config.verify': ['t_gate']" in err
    assert not (tmp_path / "flag").exists() and not (tmp_path / "config").exists()


@pytest.mark.parametrize("argv, key, value", [
    (["electron", "classical", "--v0", "-7e3"], "v0", -7e3),
    (["electron", "mathieu", "--a", "-1e-3", "--q", "0.3"], "a", -1e-3),
], ids=["classical v0", "mathieu a"])
def test_negative_values_in_exponent_notation_are_read(tmp_path, capsys, argv, key, value):
    code, out, err = run(capsys, *argv, "--dump-config")
    assert (code, json.loads(out)["electron"][argv[1]][key]) == (0, value), err
    assert run(capsys, *argv, "--out", str(tmp_path))[0] == 0
    code, _, err = run(capsys, "electron", argv[1], f"--{key}", "-x")
    assert code == 1 and "expected one argument" in err


LATTICE_OPTIONS = ["--rows", "--cols", "--d", "--n"]
OPTIONS = {  # in usage order: as before flags were generated, plus --no-boundary
    "lattice": LATTICE_OPTIONS,
    "schedule": [*LATTICE_OPTIONS, "--periodic", "--no-periodic", "--t-gate", "--t-shuttle"],
    "verify": [*LATTICE_OPTIONS, "--periodic", "--no-periodic", "--schedule"],
    "mbqc": ["--pattern"],
    "ionize": ["--irradiance", "--i-min", "--i-max", "--points", "--lambda-min",
               "--lambda-max", "--max-photons", "--detuning-cut", "--t-pulse",
               "--detuning-linewidths"],
    "electron": ["--omega-e", "--omega-rf", "--static", "--no-static", "--points-x",
                 "--points-y", "--dt", "--hbar-scale", "--v0", "--t-final", "--t", "--a",
                 "--q", "--charge", "--mass", "--v-rf", "--r0", "--boundary",
                 "--no-boundary", "--m-ion"],
    "resources": ["--bits", "--wallclock", "--n-qubits", "--t-meas", "--t-coh"],
}


@pytest.mark.parametrize("command", sorted(OPTIONS))
def test_option_strings_are_pinned(capsys, command):
    code = cli.main([command, "--help"])
    usage = capsys.readouterr().out.split("defaults:")[0]
    assert code == 0
    # each option at its first appearance: the usage line, then "-h, --help"
    found = list(dict.fromkeys(re.findall(r"(?<![\w-])--?[a-z][a-z0-9-]*", usage)))
    assert found == ["-h", *OPTIONS[command], "--config", "--seed", "--out",
                     "--dump-config", "--help"]


# sha256 of ``--dump-config`` for every (command, mode): the table of defaults
# as the user sees it.  lattice's was retaken when it lost ``periodic``, a key
# that no lattice output reads, and verify's when it lost ``t_gate`` and
# ``t_shuttle``, which no verify output reads; the other eleven are unchanged
# since before the table read its values from the library.
DUMP_CONFIG = {
    ("lattice",): "4752532ca4c4d715c6f1c2d4cb12ff1b0d51ab0cc64ad4f7e2235538f2f53452",
    ("schedule",): "58d804f501f002ca017a05858cf0bd21f52bace77d752957ec17a6106ca45f5d",
    ("verify",): "9b0a1983c508d0d8d5d1c06c2a0aae14da269b7253dc4e37c67592f1842f6c63",
    ("mbqc",): "6e96167d8ed616a40272d1aa064ec811a91dfae6a469b4f19d3ba45362f2a8f0",
    ("ionize", "rates"): "1aea1212cb95488b17414e74d3b64a177e858db515257df0d10900ba6cab13de",
    ("ionize", "resonances"):
        "7a377feb337c70b2662fa7278a68dc92dc4b8570b4347427a1152308a261c012",
    ("ionize", "quadrupole"):
        "fec7b58bee5c61af8040202d6eb4c8469de6a549dc05e03ddd83387490194d0f",
    ("ionize", "raman"): "532c9162d4ce56c684f3bac3d95bf2651e9b9d850deaf4f27c3ea815f1f962b9",
    ("electron", "propagate"):
        "1f3fe8a8abfcf74d679986ab788ee9fd87f083a3815bcaa02033f60c9636f096",
    ("electron", "classical"):
        "d6b882b13c8b16c9c55ddcefda3727b8f43fec78a1b9c45c55a1e945485be071",
    ("electron", "mathieu"):
        "27f7037f5c5c0a23eaaee99d4fd1def05de19a5df489d0b7ac399f9162ed1808",
    ("electron", "timescale"):
        "542c152eb3daaaf6f5eedc2e40466650a2c367586403f9d9c9a96c19ce3b3da3",
    ("resources",): "21ff9c7ac62ad11b16e47814017a6a05c7d0724ddde59d7accaebf64b4b3a783",
}


def test_dump_config_digests_cover_every_handler():
    assert {tuple(filter(None, key)) for key in cli._HANDLERS} == set(DUMP_CONFIG)


@pytest.mark.parametrize("argv", sorted(DUMP_CONFIG), ids=" ".join)
def test_dump_config_matches_golden_digest(capsys, argv):
    code, out, _ = run(capsys, *argv, "--dump-config")
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == (0, DUMP_CONFIG[argv])


def test_lattice_takes_no_periodic(tmp_path, capsys):
    # no lattice output depends on it; schedule and verify keep it
    code, _, err = run(capsys, "lattice", "--periodic", "--out", str(tmp_path))
    assert code == 1 and "--periodic" in err
    code, _, err = _with_config(tmp_path, capsys, {"lattice": {"periodic": True}},
                                "lattice", "--out", str(tmp_path))
    assert code == 1 and "config.lattice" in err and "periodic" in err
    assert list(tmp_path.iterdir()) == [tmp_path / "cfg.json"]


@pytest.mark.parametrize("flags, block, named", [
    (["--q", "0.5", "--v-rf", "3"], {}, "q and v_rf"),
    (["--q", "0.5", "--r0", "1"], {}, "q and r0"),
    (["--q", "0.5", "--v-rf", "3", "--r0", "1"], {}, "q and v_rf and r0"),
    (["--q", "0.5"], {"r0": 1.0}, "q and r0"),
    (["--v-rf", "3", "--r0", "1"], {"q": 0.5}, "q and v_rf and r0"),
], ids=["v_rf", "r0", "v_rf and r0", "config r0", "config q"])
def test_mathieu_q_with_drive_parameters_is_rejected(tmp_path, capsys, flags, block, named):
    # q, or v_rf and r0 to derive it from: never both, or one would be ignored
    code, out, err = _with_config(tmp_path, capsys, {"electron": {"mathieu": block}},
                                  "electron", "mathieu", *flags, "--out", str(tmp_path))
    assert (code, out) == (1, "") and named in err
    assert list(tmp_path.iterdir()) == [tmp_path / "cfg.json"]
