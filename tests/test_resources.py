import json

import pytest

from hexmbqc import resources as res


def test_op_count_exact():
    assert res.shor_op_count(640) == 8_388_608_000
    assert isinstance(res.shor_op_count(640), int)
    assert res.shor_op_count(1) == 32
    assert res.shor_op_count(1024) == 32 * 1024**3


def test_op_count_validation():
    with pytest.raises(ValueError):
        res.shor_op_count(0)
    with pytest.raises(ValueError):
        res.shor_op_count(-3)
    with pytest.raises(ValueError):
        res.shor_op_count(640.0)
    with pytest.raises(ValueError):
        res.shor_op_count(True)


def test_month_definition():
    assert res.MONTH_SECONDS == pytest.approx(30.44 * 86400.0, rel=1e-15)


def test_required_op_time_pins():
    # five-month campaign -> ~1.5 ms per op
    five_months = 5 * res.MONTH_SECONDS
    t5 = res.required_op_time(640, five_months)
    assert t5 == pytest.approx(1.5676116943359375e-3, rel=1e-12)
    assert t5 == pytest.approx(1.5e-3, rel=0.10)
    # five-minute campaign -> ~36 ns per op
    t300 = res.required_op_time(640, 300.0)
    assert t300 == pytest.approx(3.5762786865234374e-8, rel=1e-12)
    assert t300 == pytest.approx(36e-9, rel=0.05)
    with pytest.raises(ValueError):
        res.required_op_time(640, 0.0)


def test_storage_error():
    val = res.storage_error(10_000, 3e-9, 10.0)
    assert val == pytest.approx(3e-6, rel=1e-12)
    assert val < 1e-4
    assert res.storage_error(20_000, 3e-9, 10.0) == pytest.approx(2 * val)
    assert res.storage_error(0, 3e-9, 10.0) == 0.0
    with pytest.raises(ValueError):
        res.storage_error(-1, 3e-9, 10.0)
    with pytest.raises(ValueError):
        res.storage_error(10_000, 3e-9, 0.0)


def test_resource_report_shape():
    rep = res.resource_report(640, 300.0, 10_000, 3e-9, 10.0)
    json.dumps(rep)
    assert rep["schema_version"] == 1
    assert rep["op_count"] == 8_388_608_000
    assert rep["required_op_time_s"] == pytest.approx(3.576278686523437e-8)
    assert rep["storage_error"] == pytest.approx(3e-6)
    assert rep["inputs"]["bits"] == 640
    assert rep["inputs"]["month_seconds"] == pytest.approx(res.MONTH_SECONDS)
