"""End-to-end CLI tests: every command is run in-process through main()."""

import contextlib
import csv
import dataclasses
import importlib.util
import io
import json
import os
import subprocess
import sys
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
import survquack.cli as cli_module
import survquack.errors as errors_module

from survquack._version import __version__
from survquack.cli import main, parse_scenario_config, read_dataset
from survquack.dist import _arm_medians
from survquack.errors import (
    DomainError,
    InfeasibleScenario,
    NotReachedError,
    NumericalError,
    SurvquackError,
    UnsupportedCensoring,
    ValidationError,
)
from survquack.estim import Measure, SurvivalSample
from survquack.fixtures import (
    FactorSpec,
    OakAnalogSpec,
    generate_prognostic_sample,
    load_oak_analog_spec,
    write_dataset_csv,
)
from survquack.report import strip_volatile, validate_report
from survquack.rng import derive_rng
from survquack.sim import realize_scenario, run_study
from survquack.sme import naive_stratified_ratio, stratified_audit


def run_cli(argv, capsys):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def parse_report(text):
    rep = json.loads(text)
    assert validate_report(rep) is True
    return rep


def write_csv(path, rows):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("time,event,arm\n")
        for t, e, a in rows:
            fh.write(f"{t!r},{e},{a}\n")
    return str(path)


@pytest.fixture
def ident_csv(tmp_path):
    """Identical arms, all events: every comparison should land on 'no effect'."""
    rows = [(float(t), 1, "Rx") for t in range(1, 9)]
    rows += [(float(t), 1, "C") for t in range(1, 9)]
    return write_csv(tmp_path / "ident.csv", rows)


@pytest.fixture
def oak_small_csv(tmp_path):
    spec = OakAnalogSpec(
        n=300,
        theta=0.6,
        shape=1.0,
        base_scale=14.0,
        seed=7,
        factors=(
            FactorSpec("sex", ("female", "male"), 0.39, (4.0, 1.0)),
            FactorSpec("kras", ("mutant", "wild"), 0.3, (0.65, 1.0)),
        ),
    )
    path = tmp_path / "oak_small.csv"
    write_dataset_csv(generate_prognostic_sample(spec), path)
    return str(path)


# a cell longer than csv's default field limit of 131,072 characters
HUGE_CELL = "a" * 140_000

SMALL_SCENARIO = """\
[scenario]
n_total = 60
replications = 25
master_seed = 4242

[subgroup:all]
prevalence = 1.0
shape = 1.0
rx_median = 10
c_median = 8
"""


@pytest.fixture
def small_cfg(tmp_path):
    path = tmp_path / "small.cfg"
    path.write_text(SMALL_SCENARIO)
    return str(path)


def _read_outcome(path):
    """read_dataset's arrays and every factor's codes as bytes with their
    dtypes, and every factor's labels, or its error message and details."""
    try:
        s = read_dataset(path)
    except ValidationError as exc:
        return str(exc), exc.details
    return _outcome(s.time, s.event, s.is_rx, s.strata, s.factor)


def _oracle_outcome(path):
    """The same of the reference reader, whose factors come from ``np.unique``."""
    try:
        time, event, is_rx, strata = oracles.read_dataset_by_rows(path)
    except oracles.DatasetRefused as exc:
        return str(exc), exc.details

    def factor(name):
        labels, codes = np.unique(strata[name], return_inverse=True)
        return tuple(str(lv) for lv in labels), codes

    return _outcome(time, event, is_rx, strata, factor)


def _outcome(time, event, is_rx, strata, factor):
    names = sorted(strata)
    factors = [factor(k) for k in names]
    arrays = [time, event, is_rx, *(strata[k] for k in names), *(codes for _, codes in factors)]
    return names, [labels for labels, _ in factors], [(a.dtype.str, a.tobytes()) for a in arrays]


_PLAIN_CELLS = {
    "time": ["1", "2.5", "2.5", "0.25", "1e1", "1_0"],
    "event": ["0", "1"],
    "arm": ["Rx", "C"],
    "s:g": ["a", "b", "bb", ""],
}
_OFF_CELLS = {
    "time": [" 3", "4 ", "0", "-1", "nan", "x", "", "1\x00"],
    "event": [" 1", "2", "", "1\x00"],
    "arm": [" Rx", "rx", "", "Rx\x00"],
    "s:g": [" a", "b ", "a b", "\t", "é", "a\x00", "\xa0a"],
}


@st.composite
def _csv_texts(draw):
    """Small dataset files with tied times, each with up to three things off:
    a bad or padded cell, a quoted cell, a stray quote, a line end inside a
    cell, a short or long row, a blank line, CRLF or mixed line ends."""
    header = draw(st.permutations(list(_PLAIN_CELLS)))
    rows = [
        [draw(st.sampled_from(_PLAIN_CELLS[name])) for name in header]
        for _ in range(draw(st.integers(0, 8)))
    ]
    for r in draw(st.sets(st.integers(0, len(rows) - 1), max_size=3)) if rows else ():
        row = rows[r]
        i = draw(st.integers(0, len(header) - 1))
        kind = draw(st.sampled_from(["cell", "quoted", "stray quote", "line end", "short", "long", "blank"]))
        if kind == "cell":
            row[i] = draw(st.sampled_from(_OFF_CELLS[header[i]]))
        elif kind == "quoted":
            row[i] = f'"{row[i]}"'
        elif kind == "stray quote":
            row[i] = draw(st.sampled_from([f'"{row[i]}', f'"{row[i]}"x', f'{row[i]}"']))
        elif kind == "line end":
            row[i] += draw(st.sampled_from(["\r", "\n", "\r\n"])) + draw(st.sampled_from(["", "b"]))
        elif kind == "short":
            row.pop()
        elif kind == "long":
            row.append("a")
        else:
            row.clear()
    lines = [",".join(header)] + [",".join(row) for row in rows]
    ending = draw(st.sampled_from(["\n", "\r\n", "mixed"]))
    if ending == "mixed":
        return "".join(line + draw(st.sampled_from(["\n", "\r\n"])) for line in lines)
    return ending.join(lines) + draw(st.sampled_from([ending, ""]))


class TestReadDataset:
    def test_strata_and_blank_lines(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("time,event,arm,s:grp\n1.5,1,Rx,a\n\n2.5,0,C,b\n")
        sample = read_dataset(path)
        assert sample.n == 2
        assert list(sample.time) == [1.5, 2.5]
        assert list(sample.event) == [True, False]
        assert list(sample.is_rx) == [True, False]
        assert list(sample.strata["grp"]) == ["a", "b"]

    @pytest.mark.parametrize(
        ("content", "match"),
        [
            ("time,arm\n1,Rx\n", "missing required column"),
            ("time,event,arm,time\n1,1,Rx,1\n", "duplicate column"),
            ("time,event,arm,grp\n1,1,Rx,a\n", "unrecognized column"),
            ("", "file is empty"),
            ("time,event,arm\n", "no data rows"),
        ],
    )
    def test_header_failures(self, tmp_path, content, match):
        path = tmp_path / "d.csv"
        path.write_text(content)
        with pytest.raises(ValidationError, match=match):
            read_dataset(path)

    @pytest.mark.parametrize("cell", ["s:", " s: "])
    def test_empty_factor_name_is_named_as_such(self, tmp_path, cell):
        path = tmp_path / "d.csv"
        path.write_text(f"time,event,arm,{cell}\n1,1,Rx,a\n2,0,C,b\n")
        with pytest.raises(ValidationError) as excinfo:
            read_dataset(path)
        assert str(excinfo.value) == f"{path}: column 's:' has an empty factor name; strata are named 's:<factor>'"
        assert _read_outcome(path) == _oracle_outcome(path)

    def test_all_problems_collected_in_details(self, tmp_path):
        path = tmp_path / "bad.csv"
        lines = [
            "abc,1,Rx",
            "0,1,Rx",
            "5,2,Rx",
            "5,1,X",
            "5,1",
            "-1,1,C",
            "inf,1,C",
            "3.5,1,Rx",
            "4.5,0,C",
        ]
        path.write_text("time,event,arm\n" + "\n".join(lines) + "\n")
        with pytest.raises(ValidationError) as excinfo:
            read_dataset(path)
        assert len(excinfo.value.details) == 7
        assert excinfo.value.details[0].startswith("line 2:")
        assert excinfo.value.details[-1].startswith("line 8:")

    def test_problem_is_numbered_by_its_first_line(self, tmp_path):
        # the quoted cell holds a line end, so the bad time is on line 5
        path = tmp_path / "multiline.csv"
        path.write_text('time,event,arm,s:g\n1.0,1,Rx,"a\nb"\n2.0,1,C,x\nbad,1,C,y\n')
        with pytest.raises(ValidationError) as excinfo:
            read_dataset(path)
        assert excinfo.value.details == ["line 5: bad time 'bad' (could not convert string to float: 'bad')"]

    def test_unopenable_path_exits_2(self, tmp_path, capsys):
        rc, out, err = run_cli(["analyze", str(tmp_path)], capsys)
        assert rc == 2 and out == ""
        assert "survquack: error: cannot open dataset" in err

    @pytest.mark.parametrize("ending", ["\n", "\r\n"])
    def test_plain_file_is_read_column_wise(self, tmp_path, ending):
        # split with no csv pass, 1 or 3 rows at a time; a later block brings a
        # key first seen there, with a label that sorts before those seen so far
        path = tmp_path / "plain.csv"
        lines = ["time,event,arm,s:grp", "1.5,1,Rx,bb", "2.5,0,C,a", "1.5,1,C,bb", "3.0,1,C,"]
        path.write_bytes((ending.join(lines) + ending).encode())
        for block_rows in (1, 3):
            with (
                mock.patch.object(cli_module, "_BLOCK_ROWS", block_rows),
                mock.patch.object(cli_module, "_csv_blocks", side_effect=AssertionError("tokenized by csv")),
            ):
                assert _read_outcome(path) == _oracle_outcome(path)
                sample = read_dataset(path)
            assert list(sample.time) == [1.5, 2.5, 1.5, 3.0]
            assert list(sample.strata["grp"]) == ["bb", "a", "bb", ""]
            labels, codes = sample.factor("grp")
            assert labels == ("", "a", "bb") and codes.tolist() == [2, 1, 2, 0]

    @pytest.mark.parametrize("block_rows", [1, 3, 1024])
    @pytest.mark.parametrize(
        "header", ["event,arm,s:g,time", "event,time,arm,s:g", "s:g,arm,time,event"], ids=["last", "second", "third"],
    )
    def test_time_column_anywhere_is_read_without_csv(self, tmp_path, header, block_rows):
        records = [
            {"time": "1.5", "event": "1", "arm": "Rx", "s:g": "b"},
            {"time": "2.5", "event": "0", "arm": " C", "s:g": "a"},
            {"time": "1e1", "event": "1", "arm": "C", "s:g": "b "},
        ]
        path = tmp_path / "plain.csv"
        lines = [header] + [",".join(r[c] for c in header.split(",")) for r in records]
        path.write_text("\n".join(lines) + "\n")
        with (
            mock.patch.object(cli_module, "_BLOCK_ROWS", block_rows),
            mock.patch.object(cli_module, "_csv_blocks", side_effect=AssertionError("tokenized by csv")),
        ):
            assert _read_outcome(path) == _oracle_outcome(path)
        assert list(read_dataset(path).time) == [1.5, 2.5, 10.0]
        # a row one field short or long is refused as the line-by-line reader refuses it
        for bad in ("1,C", "1,3,C,a,b", "4"):
            path.write_text(path.read_text() + bad + "\n")
            assert _read_outcome(path) == _oracle_outcome(path)

    @pytest.mark.parametrize("block_rows", [3, 1024])
    def test_every_row_its_own_key(self, tmp_path, block_rows):
        # a label that differs on every row makes as many keys as rows
        path = tmp_path / "ids.csv"
        rows = [f"{i + 1}.5,{i % 2},{'Rx' if i % 3 else 'C'},id{i:03}" for i in range(500)]
        path.write_text("\n".join(["time,event,arm,s:id", *rows]) + "\n")
        with mock.patch.object(cli_module, "_BLOCK_ROWS", block_rows):
            assert _read_outcome(path) == _oracle_outcome(path)
            labels, codes = read_dataset(path).factor("id")
        assert len(labels) == 500 and codes.tolist() == list(range(500))

    @pytest.mark.parametrize("quoted", [False, True], ids=["plain", "quoted"])
    def test_packaged_cohort_splits_each_distinct_key_once(self, tmp_path, monkeypatch, quoted):
        path = tmp_path / "cohort.csv"
        write_dataset_csv(generate_prognostic_sample(load_oak_analog_spec()), path)
        if quoted:
            path.write_text("".join(f'"{line}"\n'.replace(",", '","') for line in path.read_text().splitlines()))
        splits = []
        typed = cli_module._typed_columns

        def counting(blocks, split, *args):
            return typed(blocks, lambda key: splits.append(key) or split(key), *args)

        monkeypatch.setattr(cli_module, "_typed_columns", counting)
        sample = read_dataset(path)
        keys = set(zip(sample.event, sample.is_rx, *sample.strata.values()))
        assert len(splits) == len(set(splits)) == len(keys) <= 64 and sample.n == 6000

    def test_packaged_cohort_reads_the_same_column_wise(self, tmp_path):
        # as written, with every cell quoted (as R's write.csv quotes text),
        # and with the label "female" spelt "fémale"
        paths = [tmp_path / f"{name}.csv" for name in ("plain", "quoted", "accented")]
        write_dataset_csv(generate_prognostic_sample(load_oak_analog_spec()), paths[0])
        with open(paths[0], newline="") as fh, open(paths[1], "w", newline="") as out:
            csv.writer(out, quoting=csv.QUOTE_ALL).writerows(csv.reader(fh))
        paths[2].write_bytes(paths[0].read_bytes().replace(b"female", "fémale".encode()))
        outcomes = [_read_outcome(path) for path in paths]
        assert outcomes == [_oracle_outcome(path) for path in paths]
        (names, labels, arrays), quoted, (_, accented_labels, accented) = outcomes
        assert len(names) == 4 and quoted == outcomes[0]
        assert [tuple(lv.replace("é", "e") for lv in f) for f in accented_labels] == labels
        sex = 3 + names.index("sex")  # the one label array that differs
        assert accented[:sex] + accented[sex + 1:] == arrays[:sex] + arrays[sex + 1:]
        # the read hands its factorizations to the sample
        for path in paths:
            sample = read_dataset(path)
            with mock.patch.object(np, "unique", side_effect=AssertionError("factorized again")):
                assert [sample.factor(name) for name in sample.strata]

    @given(text=_csv_texts(), block_rows=st.sampled_from([1, 3, 1024]))
    @example(text="time,event,arm,s:g\n1,1,Rx,a\x00\n2,0,C,a\n", block_rows=1024)
    @example(text="time,event,arm,s:g\n1,1,Rx,bb\n2,0,C,b\n2,1,C,\n", block_rows=1)
    @example(text="time,event,arm\n1,1,Rx\n0,1,C\n", block_rows=1024)
    @example(text="time,event,arm\n1,1,Rx\n2,2,C\n", block_rows=1024)
    # the split refuses a blank row, and csv skips it
    @example(text="time,event,arm\n1,1,Rx\n\n2,0,C\n", block_rows=1024)
    # the split refuses a bare \r, and csv a record it ends early
    @example(text="time,event,arm\n1,1\r,Rx\n", block_rows=1024)
    # csv refuses a quoted file's bad time
    @example(text='time,event,arm\n"1",1,Rx\nx,0,C\n', block_rows=1024)
    # csv refuses a quote left open, or closed before more than a comma
    @example(text='time,event,arm\n1,1,Rx\n2,0,"C\n3,1,C\n', block_rows=1024)
    @example(text='time,event,arm\n1,1,Rx\n2,0,"C"x\n', block_rows=1024)
    # csv skips a whitespace-only record; blank records only
    @example(text="time,event,arm\n1,1,Rx\n \t,\n2,0,C\n", block_rows=1024)
    @example(text="time,event,arm\n\n \t,\r\n", block_rows=1024)
    # a NUL after an event or arm is kept, so the cell is refused
    @example(text="time,event,arm\n1,1\x00,Rx\x00\n", block_rows=1024)
    # a record one field short, so its key holds one cell too few
    @example(text="time,event,arm,s:g\n1,0,Rx\n1,0,Rx,a\n", block_rows=1024)
    # float() reads "1.5\r" as 1.5: only the mixed line ends send these to csv
    @example(text="time,event,arm\n1.5\r,1,Rx\n2,0,C\n", block_rows=1024)
    @example(text="time,event,arm\r\n2,0,C\r\n1.5\r,1,Rx\r\n", block_rows=1)
    @settings(max_examples=300, deadline=None)
    def test_column_wise_read_matches_line_by_line(self, tmp_path_factory, text, block_rows):
        path = tmp_path_factory.mktemp("fuzz") / "d.csv"
        path.write_bytes(text.encode())
        with mock.patch.object(cli_module, "_BLOCK_ROWS", block_rows):
            assert _read_outcome(path) == _oracle_outcome(path)

    @pytest.mark.parametrize("grp", ["a", '"a"'], ids=["plain", "quoted"])
    def test_byte_order_mark_is_skipped(self, tmp_path, capsys, grp):
        # Excel's "CSV UTF-8" export starts the file with one mark; a quoted
        # cell sends the file to csv
        text = f"time,event,arm,s:grp\n1.5,1,Rx,{grp}\n2.5,1,C,b\n3.5,0,Rx,b\n0.5,1,C,a\n"
        unmarked, marked = tmp_path / "unmarked.csv", tmp_path / "marked.csv"
        unmarked.write_bytes(text.encode())
        marked.write_bytes(b"\xef\xbb\xbf" + text.encode())
        with mock.patch.object(cli_module, "_csv_blocks", wraps=cli_module._csv_blocks) as tokenized:
            assert _read_outcome(marked) == _read_outcome(unmarked) == _oracle_outcome(marked)
        assert tokenized.called == (grp != "a")
        assert list(read_dataset(marked).strata["grp"]) == ["a", "b", "b", "a"]
        rc, _, err = run_cli(["analyze", str(marked), "--strata", "grp"], capsys)
        assert rc == 0, err

    def test_non_utf8_byte_after_a_byte_order_mark_reports_its_file_offset(self, tmp_path):
        path = tmp_path / "marked-latin1.csv"
        path.write_bytes(b"\xef\xbb\xbftime,event,arm\n1.0,1,Rx\n2.0,1,C\xff\n")
        with pytest.raises(ValidationError, match=r"not UTF-8 text \(b'\\xff' at byte offset 34\)"):
            read_dataset(path)

    def test_non_utf8_file_is_a_validation_error(self, tmp_path, capsys):
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"time,event,arm\n1.0,1,Rx\n2.0,1,C\xff\n")
        with pytest.raises(ValidationError, match=r"not UTF-8 text \(b'\\xff' at byte offset 31\)"):
            read_dataset(path)
        rc, out, err = run_cli(["analyze", str(path)], capsys)
        assert rc == 2 and out == ""
        assert "survquack: error:" in err and "byte offset 31" in err

    def _unreadable(self, path, capsys):
        """read_dataset's error on ``path``, checking that analyze exits 2 on it
        and that csv's process-wide field limit is left as it was."""
        limit = csv.field_size_limit()
        with pytest.raises(ValidationError) as excinfo:
            read_dataset(path)
        rc, out, err = run_cli(["analyze", str(path)], capsys)
        assert rc == 2 and out == "" and err.startswith("survquack: error:")
        assert csv.field_size_limit() == limit
        return excinfo.value

    def test_cell_past_the_csv_field_limit_is_a_validation_error(self, tmp_path, capsys):
        path = tmp_path / "huge.csv"
        path.write_text(f'time,event,arm,s:g\n0,1,Rx,a\n1,1,Rx,"{HUGE_CELL}"\n2,1,C,b\n')
        exc = self._unreadable(path, capsys)
        assert exc.details == [
            "line 2: bad time '0' (time must be a positive finite number)",
            "line 3: unreadable record (field larger than field limit (131072))",
        ]

    def test_unterminated_quote_is_a_validation_error(self, tmp_path, capsys):
        # the stray quote on line 3 runs to the end of the file
        path = tmp_path / "stray.csv"
        path.write_text('time,event,arm,s:g\n1,1,Rx,a\n2,1,C,"b\n' + "3,1,C,a\n" * 20_000)
        exc = self._unreadable(path, capsys)
        assert exc.details == ["line 3: unreadable record (field larger than field limit (131072))"]

    @pytest.mark.parametrize(
        ("text", "problem"),
        [
            # a quote left open on line 3 reaches the end of the file
            ('1,1,Rx,a\n2,1,C,"b\n3,1,C,a\n4,1,Rx,a\n5,1,C,b\n', "unexpected end of data"),
            # a closed quote is followed by more than a comma
            ('1,1,Rx,a\n2,1,"C"x,b\n3,1,C,a\n4,1,Rx,b\n', "',' expected after '\"'"),
        ],
        ids=["open", "text-after-close"],
    )
    def test_stray_quote_is_a_validation_error(self, tmp_path, capsys, text, problem):
        path = tmp_path / "stray.csv"
        path.write_text("time,event,arm,s:g\n" + text)
        exc = self._unreadable(path, capsys)
        assert exc.details == [f"line 3: unreadable record ({problem})"]
        assert _read_outcome(path) == _oracle_outcome(path)

    def test_stray_quote_in_the_header_is_a_validation_error(self, tmp_path, capsys):
        path = tmp_path / "stray-header.csv"
        path.write_text('time,event,"arm"s\n1,1,Rx\n2,1,C\n')
        exc = self._unreadable(path, capsys)
        assert str(exc) == f"{path}: line 1: unreadable record (',' expected after '\"')"
        assert _read_outcome(path) == _oracle_outcome(path)

    def test_header_cell_past_the_csv_field_limit_is_a_validation_error(self, tmp_path, capsys):
        path = tmp_path / "huge-header.csv"
        path.write_text(f'time,event,arm,"s:{HUGE_CELL}"\n1,1,Rx,a\n2,1,C,b\n')
        exc = self._unreadable(path, capsys)
        assert str(exc) == f"{path}: line 1: unreadable record (field larger than field limit (131072))"


class TestAnalyze:
    def test_identical_arms(self, ident_csv, capsys):
        rc, out, err = run_cli(["analyze", ident_csv], capsys)
        assert rc == 0 and err == ""
        rep = parse_report(out)
        assert set(rep["sections"]) == {
            "dataset",
            "logrank",
            "cox_wald",
            "medians",
            "win_probability",
        }
        ds = rep["sections"]["dataset"]["data"]
        assert ds["n"] == 16 and ds["n_rx"] == 8 and ds["n_c"] == 8
        assert ds["events"] == 16 and ds["censored"] == 0
        lr = rep["sections"]["logrank"]["data"]
        assert lr["z"] == 0.0 and lr["p_two_sided"] == 1.0 and not lr["rejected"]
        cox = rep["sections"]["cox_wald"]["data"]
        assert cox["log_hr"] == 0.0 and cox["hr"] == 1.0 and cox["p_two_sided"] == 1.0
        med = rep["sections"]["medians"]["data"]
        assert med["median_rx"] == {"value": 4.0, "reached": True}
        assert med["time_ratio"] == 1.0
        win = rep["sections"]["win_probability"]["data"]
        assert win["llp"] == 0.5 and win["hr_from_llp"] == 1.0

    def test_stratified_audit_matches_library(self, oak_small_csv, capsys):
        rc, out, _ = run_cli(
            ["analyze", oak_small_csv, "--strata", "sex,kras", "--measure", "HR", "--measure", "TR"],
            capsys,
        )
        assert rc == 0
        rep = parse_report(out)
        assert "stratified_audit_hr" in rep["sections"]
        assert "stratified_audit_tr" in rep["sections"]
        assert rep["inputs"]["measures"] == ["HR", "TR"]
        sample = read_dataset(oak_small_csv)
        for measure in (Measure.HR, Measure.TR):
            section = rep["sections"][f"stratified_audit_{measure.value.lower()}"]["data"]
            comparisons = stratified_audit(sample, ["sex", "kras"], measure=measure)
            assert [row["factor"] for row in section["factors"]] == ["sex", "kras"]
            for row, comp in zip(section["factors"], comparisons):
                assert row["naive"] == comp.naive_value
                assert row["sme"] == comp.sme_value
                assert row["marginal"] == comp.marginal_value
                assert row["dropped_levels"] == list(comp.dropped_levels)

    def test_hr_audit_survives_small_fitted_shapes(self, tmp_path, capsys):
        # Weibull shape 0.3 with 25% censoring: the per-level fits have shapes
        # near 0.3, which put much of each control curve's mass near t = 0.
        full = generate_prognostic_sample(dataclasses.replace(load_oak_analog_spec(), shape=0.3))
        c = derive_rng(99, "censor").exponential(500.0, full.n)
        sample = SurvivalSample(
            np.minimum(full.time, c), full.time <= c, full.is_rx, full.strata
        )
        path = tmp_path / "shape03.csv"
        write_dataset_csv(sample, path)
        rc, out, _ = run_cli(["analyze", str(path), "--strata", "sex,kras"], capsys)
        assert rc == 0
        audit = parse_report(out)["sections"]["stratified_audit_hr"]
        assert audit["ok"] is True
        for row in audit["data"]["factors"]:
            assert 0.5 < row["sme"] < 0.75

    def test_failed_section_is_embedded_not_fatal(self, tmp_path, capsys):
        # complete separation: the Cox fit must fail without sinking the report
        rows = [(float(t), 1, "Rx") for t in (10, 11, 12)]
        rows += [(float(t), 1, "C") for t in (1, 2, 3)]
        path = write_csv(tmp_path / "sep.csv", rows)
        rc, out, _ = run_cli(["analyze", path], capsys)
        assert rc == 0
        rep = parse_report(out)
        cox = rep["sections"]["cox_wald"]
        assert cox["ok"] is False and cox["data"] is None
        assert cox["error"].startswith("NumericalError: monotone partial likelihood")
        assert rep["sections"]["logrank"]["ok"] is True
        assert rep["sections"]["medians"]["ok"] is True

    @pytest.mark.parametrize(
        "rows, strata, failed",
        [
            (["1e300,1,Rx,a", "1e-300,1,C,b"], [], {"medians": "medians.time_ratio"}),
            (
                ["1e300,1,Rx,a"] * 5 + ["1e300,1,C,a", "1e-300,1,Rx,b"] + ["1e-300,1,C,b"] * 5,
                ["--strata", "g", "--measure", "TR"],
                {"medians": "medians.time_ratio", "stratified_audit_tr": "stratified_audit_tr.factors.0.marginal"},
            ),
        ],
        ids=["time_ratio", "tr_audit_marginal"],
    )
    def test_non_finite_value_fails_its_section_and_names_the_field(self, tmp_path, capsys, rows, strata, failed):
        # JSON holds no infinity: a ratio of times 600 decades apart once
        # crashed the report instead of failing its section
        path = tmp_path / "far_apart.csv"
        path.write_text("time,event,arm,s:g\n" + "".join(f"{row}\n" for row in rows))
        rc, out, _ = run_cli(["analyze", str(path), *strata], capsys)
        assert rc == 0
        sections = parse_report(out)["sections"]
        for name, field in failed.items():
            error = f"NumericalError: {field} is not a finite number"
            assert sections[name] == {"data": None, "ok": False, "error": error}
        assert sections["logrank"]["ok"] and sections["win_probability"]["ok"]

    def test_failed_section_table_holds_its_error(self, tmp_path, capsys):
        rows = [(float(t), 1, "Rx") for t in (10, 11, 12)]
        rows += [(float(t), 1, "C") for t in (1, 2, 3)]
        path = write_csv(tmp_path / "sep.csv", rows)
        rc, out, _ = run_cli(["analyze", path, "--tables", str(tmp_path / "tables")], capsys)
        assert rc == 0
        error = parse_report(out)["sections"]["cox_wald"]["error"]
        with open(tmp_path / "tables" / "cox_wald.csv", newline="", encoding="utf-8") as fh:
            assert list(csv.reader(fh)) == [["error"], [error]]

    def test_whole_sample_cox_fit_runs_once(self, oak_small_csv, capsys, monkeypatch):
        # cox_wald and the HR audit's marginal value read one shared fit
        import survquack.cli as cli_mod
        import survquack.estim as estim_mod
        import survquack.sme as sme_mod

        sizes = []
        original = estim_mod.cox_fit_two_arm

        def counting(sample, *args, **kwargs):
            sizes.append(sample.n)
            return original(sample, *args, **kwargs)

        for module in (estim_mod, sme_mod, cli_mod):
            monkeypatch.setattr(module, "cox_fit_two_arm", counting, raising=False)
        rc, _, _ = run_cli(["analyze", oak_small_csv, "--strata", "sex,kras"], capsys)
        assert rc == 0
        assert sizes.count(read_dataset(oak_small_csv).n) == 1
        assert len(sizes) == 5  # plus one fit per level of each two-level factor

    def test_failed_whole_sample_fit_fails_only_its_sections(self, tmp_path, capsys):
        path = tmp_path / "sep_strata.csv"
        rows = [(t, "Rx", "a" if t % 2 else "b") for t in (10, 11, 12, 13)]
        rows += [(t, "C", "a" if t % 2 else "b") for t in (1, 2, 3, 4)]
        path.write_text("time,event,arm,s:grp\n" + "".join(f"{t},1,{a},{g}\n" for t, a, g in rows))
        rc, out, _ = run_cli(
            ["analyze", str(path), "--strata", "grp", "--measure", "HR", "--measure", "TR"], capsys
        )
        assert rc == 0
        sections = parse_report(out)["sections"]
        for name in ("cox_wald", "stratified_audit_hr"):
            assert sections[name]["ok"] is False
            assert sections[name]["error"].startswith("NumericalError: monotone partial likelihood")
        for name in ("logrank", "medians", "stratified_audit_tr"):
            assert sections[name]["ok"] is True

    def test_analyze_builds_each_level_and_fit_once(self, tmp_path, capsys, count_builds):
        # both audits read the same level subsamples, tables, curves and
        # Weibull fits, and every level's order comes from the one sort
        full = generate_prognostic_sample(dataclasses.replace(load_oak_analog_spec(), n=800))
        c = derive_rng(99, "censor-count").exponential(60.0, full.n)
        sample = SurvivalSample(np.minimum(full.time, c), full.time <= c, full.is_rx, full.strata)
        path = tmp_path / "censored.csv"
        write_dataset_csv(sample, path)
        counts = count_builds()
        rc, out, _ = run_cli(
            ["analyze", str(path), "--strata", "sex,histology,kras,egfr",
             "--measure", "HR", "--measure", "TR"],
            capsys,
        )
        assert rc == 0
        sections = parse_report(out)["sections"]
        assert sections["stratified_audit_hr"]["ok"] and sections["stratified_audit_tr"]["ok"]
        # one stable sort of the whole sample and none per level; one table,
        # one set of log-rank terms and one curve per arm for the sample and
        # each of its 8 levels; two Weibull fits per level
        assert counts == {
            "sorts": [((sample.n,), "stable")], "curves": 18,
            "_risk_tables": 9, "_logrank_terms": 9, "weibull_mle": 16, "km_fit": 0,
        }

    def test_benchmark_tracer_counts_every_table_of_analyze(self, tmp_path, capsys):
        # the benchmark's span tracer, loaded from its file, sees one risk
        # table for the sample and one per level, and every layer it names
        # that a censored audit runs; every name it rebinds is restored
        spec = importlib.util.spec_from_file_location(
            "perfbench_spans", os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "spans.py")
        )
        spans = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(spans)
        full = generate_prognostic_sample(dataclasses.replace(load_oak_analog_spec(), n=800))
        c = derive_rng(99, "censor-count").exponential(60.0, full.n)
        labels = full.strata["histology"]
        sample = SurvivalSample(np.minimum(full.time, c), full.time <= c, full.is_rx, {"g": labels})
        path = tmp_path / "censored.csv"
        write_dataset_csv(sample, path)
        modules = [m for k, m in list(sys.modules.items()) if k == "survquack" or k.startswith("survquack.")]
        bound = {m: dict(vars(m)) for m in modules}
        tracer = spans.Tracer()
        try:
            tracer.install({})
            tracer.enabled = True
            rc, out, _ = run_cli(
                ["analyze", str(path), "--strata", "g", "--measure", "HR", "--measure", "TR"], capsys
            )
        finally:
            tracer.enabled = False
            for module, names in bound.items():
                for name, value in names.items():
                    if getattr(module, name) is not value:
                        setattr(module, name, value)
        assert all(getattr(m, k) is v for m, names in bound.items() for k, v in names.items())
        assert rc == 0
        sections = parse_report(out)["sections"]
        assert sections["stratified_audit_hr"]["ok"] and sections["stratified_audit_tr"]["ok"]
        calls = {name: n for name, (n, _) in tracer.summary().items()}
        assert calls["estim._risk_tables"] == 1 + np.unique(labels).size
        for name in ("cli.read_dataset", "infer.logrank_test", "estim.cox_fit_two_arm",
                     "estim.weibull_mle", "sme.stratified_audit", "sme.mixture_llp"):
            assert calls.get(name, 0) >= 1, name

    def test_weibull_audit_drops_levels_without_two_death_times(self, tmp_path, capsys):
        rng = derive_rng(31, "sparse-level")
        rows = []
        for level in ("a", "b"):
            for arm in ("Rx", "C"):
                t = rng.exponential(10.0, 30)
                rows += [(float(x), int(d), arm, level) for x, d in zip(t, rng.random(30) < 0.75)]
        # level c: one Rx death; level d: two Rx deaths at one time
        rows += [(3.5, 1, "Rx", "c"), (4.5, 0, "Rx", "c"), (2.0, 1, "C", "c"), (5.0, 1, "C", "c")]
        rows += [(3.0, 1, "Rx", "d"), (3.0, 1, "Rx", "d"), (2.0, 1, "C", "d"), (6.0, 1, "C", "d")]
        path = tmp_path / "sparse.csv"
        path.write_text("time,event,arm,s:g\n" + "".join(f"{t!r},{e},{a},{g}\n" for t, e, a, g in rows))
        with pytest.warns(UserWarning, match="dropped sparse level"):
            rc, out, _ = run_cli(
                ["analyze", str(path), "--strata", "g", "--measure", "HR", "--measure", "TR"], capsys
            )
        assert rc == 0
        sections = parse_report(out)["sections"]
        for name in ("stratified_audit_hr", "stratified_audit_tr"):
            assert sections[name]["ok"] is True, sections[name]["error"]
            row, = sections[name]["data"]["factors"]
            assert row["dropped_levels"] == ["c", "d"]

    @staticmethod
    def _audit_with_level_c(tmp_path, capsys, level_c):
        """The HR and TR audit rows of levels a and b, drawn at random, and
        level c given as (time, event, arm) rows; warns of every dropped level."""
        rng = derive_rng(32, "failing-level")
        rows = []
        for level in ("a", "b"):
            for arm in ("Rx", "C"):
                t = rng.exponential(10.0, 40)
                rows += [(float(x), int(d), arm, level) for x, d in zip(t, rng.random(40) < 0.75)]
        rows += [(t, e, arm, "c") for t, e, arm in level_c]
        path = tmp_path / "failing.csv"
        path.write_text("time,event,arm,s:g\n" + "".join(f"{t!r},{e},{a},{g}\n" for t, e, a, g in rows))
        with pytest.warns(UserWarning, match="dropped sparse level") as caught:
            rc, out, _ = run_cli(
                ["analyze", str(path), "--strata", "g", "--measure", "HR", "--measure", "TR"], capsys
            )
        assert rc == 0
        sections = parse_report(out)["sections"]
        for name in ("stratified_audit_hr", "stratified_audit_tr"):
            assert sections[name]["ok"] is True, sections[name]["error"]
        (hr,), (tr,) = (sections[f"stratified_audit_{m}"]["data"]["factors"] for m in ("hr", "tr"))
        return hr, tr, " ".join(str(w.message) for w in caught)

    def test_audit_drops_levels_whose_own_fits_fail(self, tmp_path, capsys):
        # level c passes any death count, but every Rx death follows every C
        # death, so its Cox likelihood is monotone, and its Rx median is
        # never reached
        level_c = [(30.0, 1, "Rx"), (31.0, 1, "Rx")] + [(float(t), 0, "Rx") for t in range(32, 38)]
        level_c += [(float(t), 1, "C") for t in range(3, 9)]
        hr, tr, warned = self._audit_with_level_c(tmp_path, capsys, level_c)
        assert hr["dropped_levels"] == tr["dropped_levels"] == ["c"]
        assert "monotone partial likelihood" in warned and "Rx median never reached" in warned

    # Rx deaths near the largest double and most Rx subjects censored at it:
    # the Rx arm's fitted Weibull scale exceeds the largest double
    OVERFLOWING_LEVEL = (
        [(1e307, 1, "Rx"), (2e307, 1, "Rx")] + [(1.79e308, 0, "Rx")] * 20
        + [(t, 1, "C") for t in (5e306, 1.5e307, 3e307)]
    )

    def test_audit_drops_a_level_whose_weibull_scale_overflows(self, tmp_path, capsys):
        hr, tr, warned = self._audit_with_level_c(tmp_path, capsys, self.OVERFLOWING_LEVEL)
        assert hr["dropped_levels"] == tr["dropped_levels"] == ["c"]
        assert "fitted Weibull scale exceeds the largest double" in warned

    def test_audit_of_levels_whose_weibull_scales_all_overflow_fails_its_section(self, tmp_path, capsys):
        rows = [(t, e, arm, level) for level in ("a", "b") for t, e, arm in self.OVERFLOWING_LEVEL]
        path = tmp_path / "overflow.csv"
        path.write_text("time,event,arm,s:g\n" + "".join(f"{t!r},{e},{a},{g}\n" for t, e, a, g in rows))
        rc, out, _ = run_cli(["analyze", str(path), "--strata", "g"], capsys)
        assert rc == 0
        sections = parse_report(out)["sections"]
        assert sections["stratified_audit_hr"] == {
            "data": None, "ok": False,
            "error": "DomainError: factor 'g' has no level whose ratio and curves can be estimated",
        }
        assert sections["logrank"]["ok"] and sections["cox_wald"]["ok"]

    def test_hr_audit_keeps_a_level_with_two_early_deaths_and_late_censoring(self, tmp_path, capsys):
        # the Rx arm's Weibull fit, shape about 0.35, once stalled and dropped
        # the level from the HR audit; the TR audit drops it as its Rx median
        # is never reached
        level_c = [(1.0, 1, "Rx"), (2.0, 1, "Rx")] + [(float(t), 0, "Rx") for t in range(30, 36)]
        level_c += [(float(t), 1, "C") for t in range(3, 9)]
        hr, tr, warned = self._audit_with_level_c(tmp_path, capsys, level_c)
        assert hr["dropped_levels"] == [] and tr["dropped_levels"] == ["c"]
        assert "Rx median never reached" in warned

    @pytest.mark.parametrize("rx_first", [False, True])
    def test_win_fraction_kept_on_separated_arms(self, tmp_path, capsys, rx_first):
        late, early = (10, 11, 12, 13), (1, 2, 3, 4)
        rx, c = (early, late) if rx_first else (late, early)
        rows = [(float(t), 1, "Rx") for t in rx] + [(float(t), 1, "C") for t in c]
        rc, out, _ = run_cli(["analyze", write_csv(tmp_path / "sep.csv", rows)], capsys)
        assert rc == 0
        sections = parse_report(out)["sections"]
        win = sections["win_probability"]
        assert win["ok"] is True
        assert win["data"]["llp"] == (0.0 if rx_first else 1.0)
        assert win["data"]["hr_from_llp"] is None
        assert "separate completely" in win["data"]["hr_from_llp_reason"]
        assert sections["cox_wald"]["error"].startswith("NumericalError: monotone partial likelihood")

    def test_unknown_factor_rejected(self, ident_csv, capsys):
        rc, out, err = run_cli(["analyze", ident_csv, "--strata", "bogus"], capsys)
        assert rc == 2 and out == ""
        assert "survquack: error:" in err and "not in dataset" in err

    @pytest.mark.parametrize("strata", [["g,g"], ["g", "g"], ["g,h,g"]])
    def test_repeated_factor_rejected(self, tmp_path, capsys, strata):
        # auditing a factor twice would list it twice in each audit section
        path = tmp_path / "strata.csv"
        path.write_text("time,event,arm,s:g,s:h\n" + "".join(
            f"{t},1,{'Rx' if t % 2 else 'C'},{'ab'[t % 3 > 0]},{'cd'[t % 4 > 1]}\n" for t in range(1, 13)
        ))
        argv = ["analyze", str(path)] + [a for chunk in strata for a in ("--strata", chunk)]
        rc, out, err = run_cli(argv, capsys)
        assert rc == 2 and out == ""
        assert "survquack: error: factor 'g' is given more than once in --strata" in err

    def test_bad_alpha_rejected(self, ident_csv, capsys):
        rc, _, err = run_cli(["analyze", ident_csv, "--alpha", "1.5"], capsys)
        assert rc == 2 and "alpha must lie in (0, 1)" in err

    def test_missing_column_no_out_file(self, tmp_path, capsys):
        path = tmp_path / "noevent.csv"
        path.write_text("time,arm\n1,Rx\n2,C\n")
        out_path = tmp_path / "report.json"
        rc, out, err = run_cli(
            ["analyze", str(path), "--out", str(out_path)], capsys
        )
        assert rc == 2 and out == ""
        assert "missing required column" in err
        assert not out_path.exists()

    def test_malformed_rows_diagnostics(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        lines = [
            "abc,1,Rx",
            "0,1,Rx",
            "5,2,Rx",
            "5,1,X",
            "5,1",
            "-1,1,C",
            "inf,1,C",
            "3.5,1,Rx",
        ]
        path.write_text("time,event,arm\n" + "\n".join(lines) + "\n")
        rc, out, err = run_cli(["analyze", str(path)], capsys)
        assert rc == 2 and out == ""
        for lineno in (2, 3, 4, 5, 6):
            assert f"line {lineno}:" in err
        assert "(+2 more)" in err
        # the full detail list follows, one bullet per problem
        assert "  - line 7:" in err and "  - line 8:" in err

    def test_out_file_and_tables(self, oak_small_csv, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        tab_dir = tmp_path / "tables"
        rc, out, _ = run_cli(
            [
                "analyze",
                oak_small_csv,
                "--strata",
                "sex",
                "--out",
                str(out_path),
                "--tables",
                str(tab_dir),
            ],
            capsys,
        )
        assert rc == 0 and out == ""
        rep = parse_report(out_path.read_text(encoding="utf-8"))
        expected = {
            "dataset",
            "logrank",
            "cox_wald",
            "medians",
            "win_probability",
            "stratified_audit_hr",
        }
        assert set(rep["sections"]) == expected
        tables = {f"{n}.csv" for n in expected} | {"stratified_audit_hr.factors.csv"}
        assert {p.name for p in tab_dir.iterdir()} == tables
        audit_table = (tab_dir / "stratified_audit_hr.csv").read_text().splitlines()
        assert audit_table[0] == "key,value" and audit_table[1].startswith("factors,")
        factors_table = (tab_dir / "stratified_audit_hr.factors.csv").read_text().splitlines()
        assert factors_table[0] == "factor,naive,sme,marginal,dropped_levels"
        assert factors_table[1].startswith("sex,") and factors_table[1].endswith(",[]")

    def test_repeated_measure_rejected(self, ident_csv, capsys):
        # a second audit of one measure would overwrite the first
        argv = ["analyze", ident_csv, "--measure", "HR", "--measure", "TR", "--measure", "HR"]
        rc, out, err = run_cli(argv, capsys)
        assert rc == 2 and out == ""
        assert "survquack: error: measure 'HR' is given more than once in --measure" in err


class TestSimulate:
    def test_builtin_section3(self, capsys):
        rc, out, _ = run_cli(["simulate", "builtin:section3"], capsys)
        assert rc == 0
        rep = parse_report(out)
        assert rep["seed"] == 210615
        scenario = rep["sections"]["scenario"]["data"]
        assert scenario["arm_medians"]["Rx"] == pytest.approx(8.0, abs=1e-6)
        assert scenario["arm_medians"]["C"] == pytest.approx(8.0, abs=1e-6)
        assert [g["label"] for g in scenario["subgroups"]] == ["g+", "g-"]
        study = rep["sections"]["study"]["data"]
        assert study["replications"] == 1000
        assert study["rejections"] == 307
        assert study["rx_longer"] == 266
        assert study["c_longer"] == 41
        assert study["ties"] == 0
        assert study["cox_rejections"] == 307
        assert study["rejection_rate"] == pytest.approx(0.307, rel=1e-15)
        lo, hi = study["rejection_ci95"]
        assert lo < 0.307 < hi

    def test_small_config_deterministic_and_matches_library(
        self, small_cfg, tmp_path, capsys
    ):
        out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
        for out_path in (out_a, out_b):
            rc, _, _ = run_cli(
                ["simulate", small_cfg, "--out", str(out_path)], capsys
            )
            assert rc == 0
        rep_a = parse_report(out_a.read_text(encoding="utf-8"))
        rep_b = parse_report(out_b.read_text(encoding="utf-8"))
        assert strip_volatile(rep_a) == strip_volatile(rep_b)
        assert rep_a["seed"] == 4242

        study = run_study(realize_scenario(parse_scenario_config(small_cfg)))
        section = rep_a["sections"]["study"]["data"]
        assert section["replications"] == study.replications == 25
        assert section["rejections"] == study.rejections
        assert section["rx_longer"] == study.rx_longer
        assert section["c_longer"] == study.c_longer
        assert section["cox_rejections"] == study.cox_rejections

    @pytest.mark.parametrize(
        "config, medians", [("small", {"Rx": 10.0, "C": 8.0}), ("builtin:section3", {"Rx": 8.0, "C": 8.0})]
    )
    def test_each_arm_median_is_solved_once(self, small_cfg, capsys, monkeypatch, config, medians):
        # realize_scenario checks a targeted scenario's arm medians and the
        # report prints them: one solve of both arms' medians serves both
        calls = []

        def counting(rx_curve, c_curve):
            calls.append((rx_curve, c_curve))
            return _arm_medians(rx_curve, c_curve)

        monkeypatch.setattr("survquack.sim._arm_medians", counting)
        config = small_cfg if config == "small" else config
        rc, out, _ = run_cli(["simulate", config, "--replications", "1"], capsys)
        assert rc == 0
        got = parse_report(out)["sections"]["scenario"]["data"]["arm_medians"]
        assert got == {arm: pytest.approx(median, rel=1e-9) for arm, median in medians.items()}
        assert len(calls) == 1

    def test_replications_override(self, small_cfg, capsys):
        rc, out, _ = run_cli(
            ["simulate", small_cfg, "--replications", "10"], capsys
        )
        assert rc == 0
        rep = parse_report(out)
        assert rep["sections"]["study"]["data"]["replications"] == 10
        assert rep["inputs"] == {"config": small_cfg}

    def test_zero_replications_rejected(self, small_cfg, capsys):
        rc, out, err = run_cli(
            ["simulate", small_cfg, "--replications", "0"], capsys
        )
        assert rc == 2 and out == ""
        assert err == "survquack: error: replications must be >= 1\n"

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_rejected(self, small_cfg, capsys, workers):
        rc, out, err = run_cli(["simulate", small_cfg, "--workers", workers], capsys)
        assert rc == 2 and out == ""
        assert f"workers must be >= 1, got {workers}" in err

    @pytest.mark.parametrize("key", ["rx_scale", "c_scale"])
    def test_scale_keys_are_unknown(self, tmp_path, capsys, key):
        path = tmp_path / "scale.cfg"
        path.write_text(SMALL_SCENARIO + f"{key} = 3.0\n")
        rc, out, err = run_cli(["simulate", str(path)], capsys)
        assert rc == 2 and out == ""
        assert f"unknown key '{key}'" in err

    @pytest.mark.parametrize(
        "key, value",
        [("membership", "quota"), ("membership", "stochastic"), ("solve_subgroup", "all")],
        ids=["quota", "stochastic", "solve_subgroup"],
    )
    def test_membership_key_is_unknown(self, tmp_path, capsys, key, value):
        # membership is always stochastic, and the open subgroup is found, not
        # named: both keys are gone from the schema
        path = tmp_path / "membership.cfg"
        path.write_text(SMALL_SCENARIO.replace("[scenario]\n", f"[scenario]\n{key} = {value}\n"))
        rc, out, err = run_cli(["simulate", str(path)], capsys)
        assert rc == 2 and out == ""
        assert f"[scenario] unknown key '{key}'" in err

    def test_empty_subgroup_label_is_named_as_such(self, tmp_path, capsys):
        path = tmp_path / "empty_label.cfg"
        path.write_text(SMALL_SCENARIO.replace("[subgroup:all]", "[subgroup:]"))
        rc, out, err = run_cli(["simulate", str(path)], capsys)
        assert rc == 2 and out == ""
        assert err.splitlines()[1:] == [
            "  - section [subgroup:] has an empty label; such sections are named [subgroup:<label>]"
        ]

    def test_unknown_builtin(self, capsys):
        rc, _, err = run_cli(["simulate", "builtin:nope"], capsys)
        assert rc == 2 and "no builtin config named" in err

    def test_config_problems_reported(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("[scenario]\nn_total = sixty\nbogus = 1\n")
        rc, _, err = run_cli(["simulate", str(path)], capsys)
        assert rc == 2
        assert "cannot parse 'sixty'" in err
        assert "unknown key 'bogus'" in err

    def test_no_subgroups_reported(self, tmp_path, capsys):
        path = tmp_path / "empty_groups.cfg"
        path.write_text("[scenario]\nn_total = 60\n")
        rc, _, err = run_cli(["simulate", str(path)], capsys)
        assert rc == 2 and "no [subgroup:<label>] sections" in err

    def test_missing_scenario_section(self, tmp_path, capsys):
        path = tmp_path / "empty.cfg"
        path.write_text("[subgroup:a]\nprevalence = 1.0\nshape = 1.0\n")
        rc, _, err = run_cli(["simulate", str(path)], capsys)
        assert rc == 2 and "missing [scenario] section" in err


class TestPivotCi:
    def test_identical_arms_interval_contains_one(self, ident_csv, capsys):
        rc, out, _ = run_cli(["pivot-ci", ident_csv, "--seed", "3"], capsys)
        assert rc == 0
        rep = parse_report(out)
        data = rep["sections"]["pivot_ci"]["data"]
        assert data["observed_count"] == 32.0
        lo, hi = data["interval"]
        assert lo < 1.0 < hi
        assert not data["empty"]
        assert data["n_rx"] == data["n_c"] == 8
        assert data["mc_reps"] == 2000
        assert rep["inputs"] == {"dataset": ident_csv}

    def test_mc_reps_is_not_an_option(self, ident_csv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["pivot-ci", ident_csv, "--mc-reps", "4000"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --mc-reps" in capsys.readouterr().err

    def test_lehmann_effect_recovered(self, tmp_path, capsys):
        # power parameter 2: treated survival is the control curve squared,
        # so treated times are stochastically shorter
        rng = derive_rng(77, "cli-pivot")
        c_t = 1.0 * rng.standard_exponential(50)
        rx_t = 0.5 * rng.standard_exponential(50)
        rows = [(float(t), 1, "Rx") for t in rx_t]
        rows += [(float(t), 1, "C") for t in c_t]
        path = write_csv(tmp_path / "lehmann2.csv", rows)
        rc, out, _ = run_cli(["pivot-ci", path, "--seed", "5"], capsys)
        assert rc == 0
        rep = parse_report(out)
        assert rep["seed"] == 5
        data = rep["sections"]["pivot_ci"]["data"]
        lo, hi = data["interval"]
        assert lo <= 2.0 <= hi
        assert data["observed_count"] == 1019.0
        assert lo == pytest.approx(0.9427301286009165, rel=1e-12)
        assert hi == pytest.approx(2.238922424346446, rel=1e-12)
        assert data["accepted_points"] == 23
        # the grid is fixed: 200 log-spaced points over [1/50, 50]
        assert data["grid"] == {"min": 0.02, "max": 50.0, "points": 200}

    def test_censored_rows_rejected(self, tmp_path, capsys):
        rows = [(1.0, 1, "Rx"), (2.0, 0, "Rx"), (3.0, 1, "C"), (4.0, 0, "C")]
        path = write_csv(tmp_path / "cens.csv", rows)
        rc, out, err = run_cli(["pivot-ci", path], capsys)
        assert rc == 2 and out == ""
        assert "2 censored row(s)" in err

    def test_bad_level_rejected(self, ident_csv, capsys):
        rc, _, err = run_cli(["pivot-ci", ident_csv, "--level", "1.0"], capsys)
        assert rc == 2 and "survquack: error:" in err

    @pytest.mark.parametrize(
        "extra",
        [
            ["--grid-points", "8"],
            ["--grid-min", "0.5"],
            ["--grid-max", "2"],
            ["--grid-min", "0.02", "--grid-max", "50", "--grid-points", "200"],
            ["--grid-points", "1"],
        ],
    )
    def test_bad_grid_rejected(self, ident_csv, capsys, extra):
        # the grid is fixed, so any grid given on the command line is refused
        with pytest.raises(SystemExit) as excinfo:
            main(["pivot-ci", ident_csv] + extra)
        assert excinfo.value.code == 2
        assert f"unrecognized arguments: {extra[0]}" in capsys.readouterr().err


class TestSeedPrecedence:
    def pivot_args(self, dataset):
        return ["pivot-ci", dataset]

    def test_pivot_fallback_is_zero(self, ident_csv, capsys):
        rc, out, _ = run_cli(self.pivot_args(ident_csv), capsys)
        assert rc == 0 and parse_report(out)["seed"] == 0

    def test_pivot_cli_seed_used(self, ident_csv, capsys):
        rc, out, _ = run_cli(self.pivot_args(ident_csv) + ["--seed", "5"], capsys)
        rep = parse_report(out)
        assert rc == 0 and rep["seed"] == 5

    def test_config_seed_used(self, small_cfg, capsys, monkeypatch):
        # SURVQUACK_SEED is not read
        monkeypatch.setenv("SURVQUACK_SEED", "99")
        rc, out, _ = run_cli(["simulate", small_cfg], capsys)
        assert rc == 0 and parse_report(out)["seed"] == 4242

    def test_cli_seed_beats_config(self, small_cfg, capsys):
        rc, out, _ = run_cli(["simulate", small_cfg, "--seed", "7"], capsys)
        assert rc == 0 and parse_report(out)["seed"] == 7


_ERROR_PREFIXES = tuple(
    f"{cls.__name__}: "
    for cls in vars(errors_module).values()
    if isinstance(cls, type) and issubclass(cls, SurvquackError)
)


@st.composite
def _trial_rows(draw):
    """Small two-arm datasets in one factor g: tied times a thousandfold
    apart, censored last observations, levels and arms with one subject or
    none, and (one time in three) every Rx time after every C time."""
    row = st.tuples(
        st.sampled_from([0.001, 1, 2, 3, 5, 8, 1000]),
        st.sampled_from([0, 1]),
        st.sampled_from(["Rx", "C"]),
        st.sampled_from(["a", "b"]),
    )
    rows = draw(st.lists(row, min_size=1, max_size=14))
    if draw(st.integers(0, 2)) == 0:
        rows = [(t + 2000 if arm == "Rx" else t, e, arm, g) for t, e, arm, g in rows]
    return rows


class TestFuzzedDatasets:
    @given(rows=_trial_rows())
    @settings(max_examples=80, deadline=None)
    def test_every_failure_is_typed(self, tmp_path_factory, rows):
        work = tmp_path_factory.mktemp("trial")
        path = work / "d.csv"
        path.write_text("time,event,arm,s:g\n" + "".join(f"{t},{e},{a},{g}\n" for t, e, a, g in rows))
        for argv in (
            ["analyze", str(path), "--strata", "g", "--measure", "HR", "--measure", "TR"],
            ["pivot-ci", str(path)],
        ):
            out = work / f"{argv[0]}.json"
            err = io.StringIO()
            with contextlib.redirect_stderr(err), warnings.catch_warnings():
                warnings.simplefilter("ignore")
                rc = main(argv + ["--out", str(out)])
            assert rc in (0, 2, 3), (argv[0], rows)
            if rc:
                assert not out.exists()
                assert err.getvalue().startswith(("survquack: error: ", "survquack: numerical failure: "))
                continue
            for name, sec in parse_report(out.read_text(encoding="utf-8"))["sections"].items():
                assert sec["ok"] or sec["error"].startswith(_ERROR_PREFIXES), (argv[0], name, sec, rows)


class TestEq1Demo:
    def test_worked_example(self, capsys):
        rc, out, err = run_cli(["eq1-demo"], capsys)
        assert rc == 0 and err == ""
        rep = parse_report(out)
        data = rep["sections"]["pooled_ratio"]["data"]
        assert data["pooled_display"] == "0.716"
        assert data["pooled"] == naive_stratified_ratio(
            zip((0.521, 0.983), (0.5, 0.5))
        )
        assert [s["label"] for s in data["strata"]] == ["A", "B"]
        assert [s["weight"] for s in data["strata"]] == [0.5, 0.5]

    def test_two_runs_agree(self, capsys):
        _, out_a, _ = run_cli(["eq1-demo"], capsys)
        _, out_b, _ = run_cli(["eq1-demo"], capsys)
        assert strip_volatile(json.loads(out_a)) == strip_volatile(json.loads(out_b))


def _read_table(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def _table_value(cell, want):
    """A table cell read back: a string as it is, any other value from JSON."""
    return cell if isinstance(want, str) else json.loads(cell)


class TestMainPlumbing:
    @pytest.mark.parametrize(
        "argv, lists",
        [
            (["analyze", "oak_small_csv", "--strata", "sex,kras", "--measure", "HR", "--measure", "TR"],
             {"stratified_audit_hr.factors", "stratified_audit_tr.factors"}),
            (["simulate", "small_cfg"], {"scenario.subgroups"}),
            (["pivot-ci", "ident_csv"], set()),
            (["eq1-demo"], {"pooled_ratio.strata"}),
        ],
        ids=["analyze", "simulate", "pivot-ci", "eq1-demo"],
    )
    def test_tables_read_back_as_the_report(self, tmp_path, capsys, request, argv, lists):
        # <section>.csv holds every field as (key, value), and each list of
        # objects is also <section>.<field>.csv, one row per object
        argv = [request.getfixturevalue(a) if a.endswith(("_csv", "_cfg")) else a for a in argv]
        tables = tmp_path / "tables"
        rc, out, _ = run_cli(argv + ["--tables", str(tables)], capsys)
        assert rc == 0
        sections = parse_report(out)["sections"]
        assert {p.name for p in tables.iterdir()} == {f"{name}.csv" for name in [*sections, *lists]}
        for name, sec in sections.items():
            header, *rows = _read_table(tables / f"{name}.csv")
            assert header == ["key", "value"]
            assert len(rows) == len(sec["data"])
            assert {key: _table_value(cell, sec["data"][key]) for key, cell in rows} == sec["data"]
        for table in lists:
            name, field = table.split(".")
            objects = sections[name]["data"][field]
            header, *rows = _read_table(tables / f"{table}.csv")
            assert len(header) == len(objects[0]) and len(rows) == len(objects)
            for row, want in zip(rows, objects):
                assert {col: _table_value(cell, want[col]) for col, cell in zip(header, row)} == want

    def test_numerical_failure_exits_3(self, capsys, monkeypatch):
        def boom(args):
            raise NumericalError("synthetic pivot failure")

        monkeypatch.setattr("survquack.cli._cmd_eq1_demo", boom)
        rc, out, err = run_cli(["eq1-demo"], capsys)
        assert rc == 3 and out == ""
        assert "survquack: numerical failure: synthetic pivot failure" in err

    @pytest.mark.parametrize(
        "exc, rc, prefix",
        [
            (ValidationError("bad input", details=["line 2: x", "line 3: y"]), 2, "error: bad input"),
            (DomainError("off the domain"), 2, "error: off the domain"),
            (InfeasibleScenario("no such scale"), 2, "error: no such scale"),
            (UnsupportedCensoring("censored"), 2, "error: censored"),
            (NumericalError("stalled", beta=1.0), 3, "numerical failure: stalled"),
            (NotReachedError("never reached", arm="Rx"), 3, "numerical failure: never reached"),
        ],
    )
    def test_error_exit_codes(self, capsys, monkeypatch, exc, rc, prefix):
        def boom(args):
            raise exc

        monkeypatch.setattr("survquack.cli._cmd_eq1_demo", boom)
        got, out, err = run_cli(["eq1-demo"], capsys)
        assert got == rc and out == ""
        details = [f"  - {line}" for line in getattr(exc, "details", [])]
        assert err.splitlines() == [f"survquack: {prefix}"] + details

    def test_unwritable_out_exits_2(self, tmp_path, capsys):
        path = tmp_path / "missing" / "r.json"
        rc, out, err = run_cli(["eq1-demo", "--out", str(path)], capsys)
        assert rc == 2 and out == ""
        assert err.startswith("survquack: error: cannot write output:") and err.count("\n") == 1

    def test_tables_on_an_existing_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "r.json"
        path.write_text("")
        rc, out, err = run_cli(["eq1-demo", "--tables", str(path)], capsys)
        assert rc == 2 and json.loads(out)["command"] == "eq1-demo"
        assert err.startswith("survquack: error: cannot write output:") and err.count("\n") == 1

    def test_tables_into_a_directory_that_holds_files_exits_2(self, tmp_path, capsys, small_cfg):
        # a second run's tables would sit beside the first run's: the
        # directory is refused once the report is written, and left as it was
        tables = tmp_path / "tables"
        assert run_cli(["eq1-demo", "--tables", str(tables)], capsys)[0] == 0
        first = {p.name: p.read_bytes() for p in tables.iterdir()}
        rc, out, err = run_cli(["simulate", small_cfg, "--tables", str(tables)], capsys)
        assert rc == 2 and json.loads(out)["command"] == "simulate"
        assert err.startswith("survquack: error: cannot write output:") and err.count("\n") == 1
        assert "Directory not empty" in err
        assert {p.name: p.read_bytes() for p in tables.iterdir()} == first

    def test_tables_into_an_empty_or_a_missing_directory(self, tmp_path, capsys):
        empty, missing = tmp_path / "empty", tmp_path / "missing" / "tables"
        empty.mkdir()
        for tables in (empty, missing):
            rc, out, _ = run_cli(["eq1-demo", "--tables", str(tables)], capsys)
            assert rc == 0
            names = [*json.loads(out)["sections"], "pooled_ratio.strata"]
            assert {p.name for p in tables.iterdir()} == {f"{name}.csv" for name in names}

    @pytest.mark.parametrize(
        "argv",
        [["analyze", "d.csv"], ["simulate", "x.cfg"], ["pivot-ci", "d.csv"], ["eq1-demo"]],
    )
    def test_every_command_takes_out_and_tables(self, argv):
        args = cli_module.build_parser().parse_args(argv + ["--out", "r.json", "--tables", "t"])
        assert (args.out, args.tables) == ("r.json", "t")

    def test_module_run_is_warning_free(self):
        # importing the package must not load survquack.cli, or runpy warns
        # that the module is already in sys.modules
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli_module.__file__)))
        done = subprocess.run(
            [sys.executable, "-W", "error", "-m", "survquack.cli", "eq1-demo"],
            env=env, capture_output=True, text=True,
        )
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout)["command"] == "eq1-demo"

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert capsys.readouterr().out.strip() == f"survquack {__version__}"

    def test_missing_subcommand(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2
