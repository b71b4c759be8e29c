"""Named mutants of src/survquack/ and the tests that must catch them.

A mutant is a deliberate small break in the package: one exact text of one
source file replaced by another. Each one here names the tests that must
fail on it. Run from the repository root:

    python tests/mutants.py [NAME ...]

With no name every mutant runs. Each one is applied to a fresh temporary
copy of src/ (with tests/ and pyproject.toml beside it, so that pytest
imports the copy), its tests run with ``-x -q -p no:cacheprovider``, and
one line reports it caught or survived, with the time taken. The exit
status is 1 if any mutant survived or its tests could not run.
tests/test_package.py checks, without running any mutant, that each text
occurs exactly once in src/ and that each named test is collected, so
that this list fails when code moves.

Uses only the standard library besides pytest itself; the file name keeps
pytest from collecting it.
"""

import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    file: str  # relative to src/survquack/
    text: str  # occurs exactly once in the file
    replacement: str
    tests: tuple  # node IDs, at least one of which must fail


MUTANTS = {
    # a step curve that ends exactly at the level is refused before its jumps are read
    "quantile-limit-first": Mutant(
        "dist.py",
        """    jumps = curve.jump_times()
    if jumps is not None:
        hits = np.flatnonzero(np.asarray(curve.survival(jumps)) <= p)
        if hits.size == 0:
            raise NotReachedError(f"curve never falls to survival {p}")
        return float(jumps[hits[0]])
    final = curve.final_survival()
    if final >= p:
        raise NotReachedError(f"curve never falls to survival {p}")
""",
        """    final = curve.final_survival()
    if final >= p:
        raise NotReachedError(f"curve never falls to survival {p}")
    jumps = curve.jump_times()
    if jumps is not None:
        hits = np.flatnonzero(np.asarray(curve.survival(jumps)) <= p)
        if hits.size == 0:
            raise NotReachedError(f"curve never falls to survival {p}")
        return float(jumps[hits[0]])
""",
        (
            "tests/test_estim.py::test_km_median_is_the_product_limit_quantile",
            "tests/test_sme.py::test_sme_tr_of_one_level_is_the_sample_tr",
        ),
    ),
    "jumpless-limit-unchecked": Mutant(
        "dist.py",
        "if final >= p:",
        "if False:",
        ("tests/test_dist.py::test_quantile_not_reached_when_a_curve_without_jumps_ends_at_the_level",),
    ),
    "arm-labels-swapped": Mutant(
        "dist.py",
        "for arm, curve in ((ARM_RX, rx_curve), (ARM_C, c_curve)):",
        "for arm, curve in ((ARM_C, rx_curve), (ARM_RX, c_curve)):",
        (
            "tests/test_estim.py::test_sample_tr_reports_unreached_arm",
            "tests/test_sme.py::test_sme_tr_unreached_median_names_the_arm",
        ),
    ),
    "median-guard-widened": Mutant(
        "sim.py",
        "if abs(med - config.overall_median) > 1e-6 * config.overall_median:",
        "if abs(med - config.overall_median) > 1e-3 * config.overall_median:",
        ("tests/test_dist.py::test_a_realized_median_off_its_target_is_refused",),
    ),
    # utf-8-sig counts a bad byte's offset from after the mark
    "bom-by-utf-8-sig": Mutant(
        "cli.py",
        'text = raw.decode("utf-8")',
        'text = raw.decode("utf-8-sig")',
        (
            "tests/test_cli.py::TestReadDataset::"
            "test_non_utf8_byte_after_a_byte_order_mark_reports_its_file_offset",
        ),
    ),
    "mixed-line-ends-split": Mutant(
        "cli.py",
        'raise ValueError("mixed line ends")',
        "pass",
        ("tests/test_cli.py::TestReadDataset::test_column_wise_read_matches_line_by_line",),
    ),
    "key-field-count-unchecked": Mutant(
        "cli.py",
        "if {*map(len, cells)} != {width - 1}:",
        "if False:",
        ("tests/test_cli.py::TestReadDataset::test_column_wise_read_matches_line_by_line",),
    ),
    "csv-field-count-unchecked": Mutant(
        "cli.py",
        "if set(map(len, rows)) - {width}:",
        "if False:",
        ("tests/test_cli.py::TestReadDataset::test_time_column_anywhere_is_read_without_csv",),
    ),
    "key-positions-shifted": Mutant(
        "cli.py",
        "key[(i - columns[0] - 1) % width]",
        "key[(i - columns[0]) % width]",
        ("tests/test_cli.py::TestReadDataset::test_plain_file_is_read_column_wise",),
    ),
}


def run(name, mutant):
    """Apply ``mutant`` to a fresh copy of src/ and run its tests there; pytest's exit code."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = Path(tmp)
        skip = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        shutil.copytree(ROOT / "src", copy / "src", ignore=skip)
        shutil.copytree(ROOT / "tests", copy / "tests", ignore=skip)
        shutil.copy(ROOT / "pyproject.toml", copy)
        path = copy / "src" / "survquack" / mutant.file
        source = path.read_text(encoding="utf-8")
        if source.count(mutant.text) != 1:
            raise SystemExit(f"{name}: its text occurs {source.count(mutant.text)} times in {mutant.file}")
        path.write_text(source.replace(mutant.text, mutant.replacement), encoding="utf-8")
        argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *mutant.tests]
        return subprocess.run(argv, cwd=copy, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode


def main(names):
    unknown = [name for name in names if name not in MUTANTS]
    if unknown:
        raise SystemExit(f"unknown mutant(s) {unknown}; known: {sorted(MUTANTS)}")
    survived = 0
    for name in names or MUTANTS:
        start = time.perf_counter()
        code = run(name, MUTANTS[name])
        # 1: a test failed; 0: all passed; any other code: pytest could not run them
        outcome = {0: "SURVIVED", 1: "caught"}.get(code, f"ERROR (pytest exit {code})")
        survived += code != 1
        print(f"{outcome} {name} ({time.perf_counter() - start:.1f} s)", flush=True)
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
