"""The packaged stratified fixture: spec parsing, generation, CSV round trip."""

import numpy as np
import pytest

from survquack import fixtures, generate_prognostic_sample, load_oak_analog_spec
from survquack.cli import read_dataset
from survquack.errors import DomainError, ValidationError
from survquack.estim import SurvivalSample
from survquack.fixtures import FactorSpec, OakAnalogSpec, write_dataset_csv


# -------------------------------------------------------- load_oak_analog_spec

def test_packaged_spec_contents():
    spec = load_oak_analog_spec()
    assert (spec.n, spec.theta, spec.shape) == (6000, 0.6, 1.0)
    assert (spec.base_scale, spec.seed) == (14.0, 1001)
    assert [f.name for f in spec.factors] == ["sex", "histology", "kras", "egfr"]
    sex = spec.factors[0]
    assert sex.labels == ("female", "male")
    assert sex.prevalence == 0.39
    assert sex.multipliers == (4.0, 1.0)


def test_spec_loads_from_explicit_path(tmp_path):
    path = tmp_path / "tiny.cfg"
    path.write_text(
        "[dataset]\nn = 50\ntheta = 0.5\nshape = 1.1\nbase_scale = 9.0\nseed = 3\n"
        "[factor:grp]\nlabels = lo, hi\nprevalence = 0.4\nmultipliers = 1.0, 2.0\n"
    )
    spec = load_oak_analog_spec(path)
    assert spec == OakAnalogSpec(
        50, 0.5, 1.1, 9.0, 3, (FactorSpec("grp", ("lo", "hi"), 0.4, (1.0, 2.0)),)
    )


@pytest.mark.parametrize(
    "text,match",
    [
        ("[factor:grp]\nlabels = a, b\nprevalence = 0.5\nmultipliers = 1, 2\n", "dataset"),
        (
            "[dataset]\nn = 50\ntheta = 0.5\nshape = 1.0\nbase_scale = 9.0\nseed = 3\n"
            "[extras]\nfoo = 1\n",
            "unrecognized section",
        ),
        (
            "[dataset]\nn = 50\ntheta = 0.5\nshape = 1.0\nbase_scale = 9.0\nseed = 3\n"
            "[factor:grp]\nlabels = a, b, c\nprevalence = 0.5\nmultipliers = 1, 2\n",
            "labels",
        ),
        (
            "[dataset]\nn = 50\ntheta = 0.5\nshape = 1.0\nbase_scale = 9.0\nseed = 3\n"
            "[factor:grp]\nlabels = a, b\nprevalence = 0.5\nmultipliers = one, 2\n",
            "multipliers",
        ),
        (
            "[dataset]\ntheta = 0.5\nshape = 1.0\nbase_scale = 9.0\nseed = 3\n",
            r"\[dataset\]",
        ),
        (
            "[dataset]\nn = 50\ntheta = maybe\nshape = 1.0\nbase_scale = 9.0\nseed = 3\n",
            r"\[dataset\]",
        ),
        ("n = 50\n[dataset]\nseed = 3\n", "section header"),
        (
            "[dataset]\nn = 50\ntheta = 0.5\nshape = 1.0\nbase_scale = 9.0\nseed = 3\nsede = 4\n"
            "[factor:grp]\nlabels = a, b\nprevalence = 0.5\nmultipliers = 1, 2\n",
            r"\[dataset\] unknown key 'sede'",
        ),
        (
            "[dataset]\nn = 50\ntheta = 0.5\nshape = 1.0\nbase_scale = 9.0\nseed = 3\n"
            "[factor:grp]\nlabels = a, b\nprevalence = 0.5\nmultipliers = 1, 2\nmultiplier = 3\n",
            r"\[factor:grp\] unknown key 'multiplier'",
        ),
    ],
)
def test_spec_parse_failures(tmp_path, text, match):
    path = tmp_path / "bad.cfg"
    path.write_text(text)
    with pytest.raises(ValidationError, match=match):
        load_oak_analog_spec(path)


def test_empty_factor_label_is_named_as_such(tmp_path):
    path = tmp_path / "empty_label.cfg"
    path.write_text(
        "[dataset]\nn = 50\ntheta = 0.5\nshape = 1.0\nbase_scale = 9.0\nseed = 3\n"
        "[factor:]\nlabels = a, b\nprevalence = 0.5\nmultipliers = 1, 2\n"
    )
    with pytest.raises(ValidationError) as excinfo:
        load_oak_analog_spec(path)
    assert excinfo.value.details == ["section [factor:] has an empty label; such sections are named [factor:<name>]"]


def test_spec_missing_file_is_a_validation_error(tmp_path):
    with pytest.raises(ValidationError, match="cannot open config"):
        load_oak_analog_spec(tmp_path / "absent.cfg")


def test_factor_spec_validation():
    with pytest.raises(DomainError):
        FactorSpec("f", ("a", "b", "c"), 0.5, (1.0, 2.0, 3.0))
    with pytest.raises(DomainError):
        FactorSpec("f", ("a", "b"), 0.0, (1.0, 2.0))
    with pytest.raises(DomainError):
        FactorSpec("f", ("a", "b"), 0.5, (1.0, -2.0))
    with pytest.raises(DomainError):
        FactorSpec("f", ("a", "b"), 0.5, (1.0, float("inf")))


def test_oak_spec_validation():
    factor = FactorSpec("f", ("a", "b"), 0.5, (1.0, 2.0))
    with pytest.raises(DomainError):
        OakAnalogSpec(3, 0.5, 1.0, 9.0, 1, (factor,))
    with pytest.raises(DomainError):
        OakAnalogSpec(50, 0.0, 1.0, 9.0, 1, (factor,))
    with pytest.raises(DomainError):
        OakAnalogSpec(50, 0.5, 1.0, 9.0, 1, ())
    with pytest.raises(DomainError):
        OakAnalogSpec(50, 0.5, 1.0, 9.0, 1, (factor, factor))


# ------------------------------------------------- generate_prognostic_sample

def test_generate_layout_and_determinism(oak_spec, oak_sample):
    assert oak_sample.n == oak_spec.n
    assert oak_sample.event.all()
    assert int(oak_sample.is_rx.sum()) == oak_spec.n // 2
    assert oak_sample.is_rx[: oak_spec.n // 2].all()
    assert sorted(oak_sample.strata) == ["egfr", "histology", "kras", "sex"]
    assert set(np.unique(oak_sample.strata["sex"])) == {"female", "male"}

    again = generate_prognostic_sample(oak_spec)
    assert np.array_equal(oak_sample.time, again.time)
    for name in oak_sample.strata:
        assert np.array_equal(oak_sample.strata[name], again.strata[name])


def test_generate_frozen_canaries(oak_sample):
    # pins the stream layout: any reordering of the draws moves these
    assert float(oak_sample.time[0]) == pytest.approx(53.64673981870101, rel=1e-15)
    assert float(oak_sample.time[-1]) == pytest.approx(42.60194897149253, rel=1e-15)
    assert float((oak_sample.strata["sex"] == "female").mean()) == pytest.approx(
        0.38816666666666666, abs=1e-15
    )


def test_generate_respects_prevalence_and_theta():
    factor = FactorSpec("grp", ("lo", "hi"), 0.25, (1.0, 3.0))
    spec = OakAnalogSpec(20000, 0.5, 1.0, 10.0, 11, (factor,))
    sample = generate_prognostic_sample(spec)
    frac_lo = float((sample.strata["grp"] == "lo").mean())
    assert abs(frac_lo - 0.25) < 0.02
    # exponential cells: mean control time in a cell estimates its scale
    c_lo = sample.time[~sample.is_rx & (sample.strata["grp"] == "lo")]
    c_hi = sample.time[~sample.is_rx & (sample.strata["grp"] == "hi")]
    assert abs(c_lo.mean() - 10.0) < 0.6
    assert abs(c_hi.mean() - 30.0) < 1.5
    # theta = 0.5 under shape 1 doubles the treated scale in every cell
    rx_lo = sample.time[sample.is_rx & (sample.strata["grp"] == "lo")]
    assert abs(rx_lo.mean() - 20.0) < 1.2


# ------------------------------------------------------------ write_dataset_csv

def test_csv_round_trip_is_exact(tmp_path):
    factor = FactorSpec("grp", ("lo", "hi"), 0.5, (1.0, 2.0))
    spec = OakAnalogSpec(40, 0.5, 1.1, 10.0, 7, (factor,))
    sample = generate_prognostic_sample(spec)
    path = tmp_path / "rt.csv"
    write_dataset_csv(sample, path)
    header = path.read_text().splitlines()[0]
    assert header == "time,event,arm,s:grp"
    back = read_dataset(path)
    assert np.array_equal(sample.time, back.time)  # repr() writes round-trip floats
    assert np.array_equal(sample.event, back.event)
    assert np.array_equal(sample.is_rx, back.is_rx)
    assert np.array_equal(sample.strata["grp"], back.strata["grp"])


@pytest.mark.parametrize("block_rows", [2, fixtures._WRITE_ROWS])
def test_csv_bytes_are_pinned(tmp_path, monkeypatch, block_rows):
    # a censored row, a time that takes 17 digits and a label holding a comma,
    # written in one block of rows or across two
    monkeypatch.setattr(fixtures, "_WRITE_ROWS", block_rows)
    sample = SurvivalSample(
        np.array([0.1 + 0.2, 2.0, 7.5]),
        np.array([True, False, True]),
        np.array([True, False, False]),
        {"site": np.array(["a,b", "c", "c"]), "grade": np.array([1, 2, 1])},
    )
    path = tmp_path / "pinned.csv"
    write_dataset_csv(sample, path)
    assert path.read_bytes() == (
        b"time,event,arm,s:site,s:grade\r\n"
        b'0.30000000000000004,1,Rx,"a,b",1\r\n'
        b"2.0,0,C,c,2\r\n"
        b"7.5,1,C,c,1\r\n"
    )
