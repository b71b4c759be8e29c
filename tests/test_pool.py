"""The warm worker pool that simulate and pivot-ci share, tested through
each verb: a failing share, a dead worker and a forked child are handled
alike, and both verbs run on one pool.

Each test starts its own pool (fresh_pool) after its patches, so that the
workers it forks see them, and starts at most two worker processes."""

import dataclasses
import functools
import multiprocessing
import os
import pickle
import signal
import time
from concurrent.futures.process import BrokenProcessPool

import pytest

from survquack import _pool, infer, sim
from survquack.cli import parse_scenario_config
from survquack.errors import NumericalError
from survquack.rng import derive_rng


class _Simulate:
    """A study of 4 * sim._MIN_CHUNK replications: one share per usable CPU
    up to four."""

    share = (sim, "_tally_chunk")
    units = 4 * sim._MIN_CHUNK

    def __init__(self):
        config = parse_scenario_config("builtin:section3")
        self.scenario = sim.realize_scenario(
            dataclasses.replace(config, n_total=20, replications=self.units)
        )

    def run(self):
        return sim.run_study(self.scenario)


class _PivotCi:
    """The pivot on a 150 x 150 trial: its rows split into one share per
    usable CPU up to four."""

    share = (infer, "_first_crossings")
    units = infer.MC_REPS

    def __init__(self):
        rng = derive_rng(61, "pool-trial")
        self.rx, self.c = rng.exponential(1.0, 150), rng.exponential(1.5, 150)

    def run(self):
        ci = infer.mw_pivot_ci(self.rx, self.c, seed=61)
        return ci.accepted.tolist(), ci.lo, ci.hi, ci.observed_count, ci.empty


@pytest.fixture(params=[_Simulate, _PivotCi], ids=["simulate", "pivot-ci"])
def verb(request):
    return request.param()


def _pool_pids():
    return {process.pid for process in multiprocessing.active_children()}


def _around_shares(monkeypatch, verb, around):
    """Run ``around(share, run)`` in place of each of the verb's shares, in
    whichever process runs it; ``share`` is its range of units and ``run()``
    runs it. The stand-in carries the share function's name, so it is sent
    to the workers by that name, and a pool started after this patch runs
    it there."""
    module, name = verb.share
    original = getattr(module, name)

    @functools.wraps(original)
    def stand_in(*args):
        return around(args[-1], lambda: original(*args))

    monkeypatch.setattr(module, name, stand_in)


@pytest.mark.parametrize("cpus", [2, 3])
@pytest.mark.parametrize("at", [(0.1, 0.9), (0.5, 0.9)], ids=["parent-fails", "pool-fails"])
def test_a_failing_call_raises_its_first_failing_unit(verb, monkeypatch, usable_cpus, fresh_pool, at, cpus):
    # two units fail, each with its own diagnostics. At (0.1, 0.9) the
    # parent's share fails and so does the last; at (0.5, 0.9) on three CPUs
    # two pool shares fail and the parent's succeeds. The error is the
    # earlier unit's, as a run in one process raises it
    poisoned = [int(f * verb.units) for f in at]

    def around(share, run):
        hit = [unit for unit in poisoned if unit in share]
        if hit:
            raise NumericalError("a unit failed", unit=hit[0])
        return run()

    _around_shares(monkeypatch, verb, around)
    usable_cpus(1)
    with pytest.raises(NumericalError) as sequential:
        verb.run()
    assert _pool_pids() == set()
    usable_cpus(cpus)
    with pytest.raises(NumericalError) as split:
        verb.run()
    assert len(_pool_pids()) == cpus - 1
    assert split.value.diagnostics == sequential.value.diagnostics == {"unit": poisoned[0]}


def test_a_failed_parent_share_leaves_no_share_running(verb, monkeypatch, usable_cpus, fresh_pool, tmp_path):
    # the parent's share fails only once the worker's share has started,
    # slowly: the call returns when that share is done
    usable_cpus(2)
    log, parent = tmp_path / "worker-shares", os.getpid()

    def around(share, run):
        if os.getpid() == parent:
            deadline = time.monotonic() + 60.0
            while not log.exists() and time.monotonic() < deadline:
                time.sleep(0.001)
            raise NumericalError("the parent's share failed")
        with open(log, "a") as fh:
            fh.write("begin\n")
        time.sleep(0.1)
        result = run()
        with open(log, "a") as fh:
            fh.write("end\n")
        return result

    _around_shares(monkeypatch, verb, around)
    with pytest.raises(NumericalError, match="the parent's share failed"):
        verb.run()
    assert log.read_text() == "begin\nend\n"
    time.sleep(0.3)
    assert log.read_text() == "begin\nend\n"


def test_a_killed_worker_fails_one_call_and_the_next_starts_a_pool(verb, usable_cpus, fresh_pool):
    usable_cpus(1)
    sequential = verb.run()
    assert _pool_pids() == set()
    usable_cpus(2)
    assert verb.run() == sequential
    (killed,) = _pool_pids()
    os.kill(killed, signal.SIGKILL)
    with pytest.raises(BrokenProcessPool):
        verb.run()
    assert verb.run() == sequential
    (started,) = _pool_pids()
    assert started != killed


def _in_forked_child(work, timeout=120.0):
    """Run ``work()`` in an ``os.fork()``ed child and return what it
    returned; fail the test with what it raised, or if it does not end."""
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:  # the child never returns to the test run
        try:
            os.close(read)
            try:
                outcome = (True, work())
            except Exception as exc:
                outcome = (False, repr(exc))
            with os.fdopen(write, "wb") as fh:
                fh.write(pickle.dumps(outcome))
        finally:
            os._exit(0)
    os.close(write)
    deadline = time.monotonic() + timeout
    while os.waitpid(pid, os.WNOHANG) == (0, 0):
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("the forked child did not finish")
        time.sleep(0.01)
    with os.fdopen(read, "rb") as fh:
        ok, value = pickle.loads(fh.read())
    assert ok, value
    return value


def test_a_forked_child_runs_on_a_pool_of_its_own(verb, usable_cpus, fresh_pool):
    usable_cpus(1)
    sequential = verb.run()
    usable_cpus(2)
    assert verb.run() == sequential
    workers = _pool_pids()

    def child_call():
        # the child inherits the parent's worker records, not its pool
        assert _pool._warm == {}
        result = verb.run()
        own = _pool_pids() - workers
        _pool._shutdown_pool()
        return result, own

    result, own = _in_forked_child(child_call)
    assert result == sequential
    assert len(own) == 1 and not own & workers
    assert verb.run() == sequential
    assert _pool_pids() == workers


def test_both_verbs_run_on_one_warm_pool(usable_cpus, fresh_pool):
    usable_cpus(2)
    study, pivot = _Simulate(), _PivotCi()
    report = study.run()
    workers = _pool_pids()
    assert len(workers) == 1
    ci = pivot.run()
    assert _pool_pids() == workers
    assert study.run() == report and pivot.run() == ci
    assert _pool_pids() == workers
