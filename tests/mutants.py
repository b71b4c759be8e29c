"""Named mutants of src/survquack/ and the tests that must catch them.

A mutant is a deliberate small break in the package: one exact text of one
source file replaced by another. Each one here names the tests that must
fail on it; a mutant of a rule that once had several copies names a test
at each place a copy stood, so that its catch shows that every such place
now reads the one statement. Run from the repository root:

    python tests/mutants.py [NAME ...]

With no name every mutant runs. Each one is applied to a fresh temporary
copy of src/ (with tests/ and pyproject.toml beside it, so that pytest
imports the copy), each of its tests runs on its own with
``-x -q -p no:cacheprovider``, and one line reports it caught (every test
failed) or survived (naming the tests that passed), with the time taken.
The exit status is 1 if any mutant survived or its tests could not run.
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
    tests: tuple  # node IDs, each of which must fail (a function: one of its cases)


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
    # One statement per rule. The claim rule: a study's block rows, its
    # fallback rows and decision_procedure read one (claim, tie) helper
    "claim-tie-flipped": Mutant(
        "infer.py",
        "median_rx is None or median_c is None or median_rx == median_c:",
        "median_rx is None or median_c is None or median_rx != median_c:",
        (
            "tests/test_sim.py::test_section3_tallies_at_2000_replications",
            "tests/test_sim.py::test_tally_counts_a_rejection_whose_medians_tie",
            "tests/test_infer.py::test_decision_exact_median_tie_rejects_without_direction",
        ),
    ),
    # a scenario's arm medians and the mixable TR and HR build their arms
    # by SubgroupTable.arm_mixture
    "arm-mixture-arms-swapped": Mutant(
        "sme.py",
        "(r.prevalence, r.rx if rx else r.c)",
        "(r.prevalence, r.c if rx else r.rx)",
        (
            "tests/test_cli.py::TestSimulate::test_each_arm_median_is_solved_once",
            "tests/test_sme.py::test_sme_tr_of_one_level_is_the_sample_tr",
            "tests/test_sme.py::test_sme_hr_mixing_dilutes_a_shared_exponent_toward_one",
        ),
    ),
    # the naive pooling weights are held to the mixture's prevalence rule
    "prevalence-sum-loosened": Mutant(
        "dist.py",
        "if abs(total - 1.0) > 1e-12:",
        "if abs(total - 1.0) > 1e-9:",
        (
            "tests/test_dist.py::test_mixture_validates_components",
            "tests/test_sme.py::test_naive_weights_follow_the_mixture_prevalence_rule",
        ),
    ),
    # the log-rank test and the Cox fit share the two-arm guard
    "no-death-guard-dropped": Mutant(
        "estim.py",
        """        if not self.event.any():
            raise DomainError("at least one death is required")
""",
        "",
        (
            "tests/test_infer.py::test_logrank_rejects_single_arm_and_no_deaths",
            "tests/test_estim.py::test_cox_requires_both_arms",
        ),
    ),
    # every draw maps its uniforms through one clamp and -log
    "zero-uniform-unclamped": Mutant(
        "dist.py",
        "    np.maximum(u, _TINY, out=u)\n",
        "",
        (
            "tests/test_dist.py::test_sample_times_draws_a_finite_time_from_a_zero_uniform",
            "tests/test_sim.py::test_a_zero_uniform_draws_a_finite_time",
            "tests/test_fixtures.py::test_a_zero_uniform_draws_a_finite_time",
            "tests/test_infer.py::test_null_blocks_draw_finite_values_from_a_zero_uniform",
        ),
    ),
    # the seed's words, a rep's and a tail's are hashed by one array routine
    "hashmix-shift-changed": Mutant(
        "rng.py",
        "    return value ^ value >> 16, const_next",
        "    return value ^ value >> 15, const_next",
        (
            "tests/test_rng.py::test_bulk_states_match_numpy_seed_sequence",
            "tests/test_rng.py::test_one_row_uniforms_equal_the_block_route",
        ),
    ),
    # The worker pool and the pivot's streams.
    "shares-summed-in-reverse": Mutant(
        "_pool.py",
        "for part in parts:",
        "for part in reversed(parts):",
        ("tests/test_pool.py::test_a_failing_call_raises_its_first_failing_unit",),
    ),
    "no-wait-on-exit": Mutant(
        "_pool.py",
        "wait([part for part in parts if not part.cancel()])",
        "[part.cancel() for part in parts]",
        ("tests/test_pool.py::test_a_failed_parent_share_leaves_no_share_running",),
    ),
    "broken-pool-kept": Mutant(
        "_pool.py",
        """    except BrokenProcessPool:
        with _pool_lock():
            _shutdown_pool()
        raise""",
        """    except BrokenProcessPool:
        raise""",
        ("tests/test_pool.py::test_a_killed_worker_fails_one_call_and_the_next_starts_a_pool",),
    ),
    "no-fork-hook": Mutant(
        "_pool.py",
        "os.register_at_fork(after_in_child=_warm.clear)",
        "pass",
        ("tests/test_pool.py::test_a_forked_child_runs_on_a_pool_of_its_own",),
    ),
    "reference-copy-not-advanced": Mutant(
        "infer.py",
        "for skip in (rows.start * m, mc_reps * m + rows.start * n):",
        "for skip in (0, mc_reps * m + rows.start * n):",
        ("tests/test_infer.py::test_mw_pivot_is_the_same_on_any_number_of_cpus",),
    ),
    "treated-copy-not-advanced": Mutant(
        "infer.py",
        "for skip in (rows.start * m, mc_reps * m + rows.start * n):",
        "for skip in (rows.start * m, mc_reps * m):",
        ("tests/test_infer.py::test_mw_pivot_is_the_same_on_any_number_of_cpus",),
    ),
    "one-block-minimum-share": Mutant(
        "infer.py",
        "_MIN_SHARE_BLOCKS = 3",
        "_MIN_SHARE_BLOCKS = 1",
        ("tests/test_infer.py::test_mw_pivot_is_the_same_on_any_number_of_cpus",),
    ),
    "acceptance-region-leaves-rng": Mutant(
        "infer.py",
        "    rng.bit_generator.advance(mc_reps * (n + m))\n",
        "",
        ("tests/test_infer.py::test_mw_acceptance_region_streams_blocks_like_one_fresh_draw",),
    ),
}


def run(name, mutant):
    """Apply ``mutant`` to a fresh copy of src/ and run each of its tests
    there on its own: {node ID: pytest's exit code}."""
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
        argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"]
        quiet = {"cwd": copy, "stdout": subprocess.DEVNULL, "stderr": subprocess.DEVNULL}
        return {test: subprocess.run([*argv, test], **quiet).returncode for test in mutant.tests}


def main(names):
    unknown = [name for name in names if name not in MUTANTS]
    if unknown:
        raise SystemExit(f"unknown mutant(s) {unknown}; known: {sorted(MUTANTS)}")
    survived = 0
    for name in names or MUTANTS:
        start = time.perf_counter()
        codes = run(name, MUTANTS[name])
        # 1: the test failed; 0: it passed; any other code: pytest could not run it
        passed = [test for test, code in codes.items() if code == 0]
        errors = sorted({code for code in codes.values()} - {0, 1})
        outcome = f"ERROR (pytest exit {errors})" if errors else f"SURVIVED {passed}" if passed else "caught"
        survived += bool(passed or errors)
        print(f"{outcome} {name} ({time.perf_counter() - start:.1f} s)", flush=True)
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
