"""Panel walks split across forked walkers: the one-walker bytes, always.

:func:`repro.analysis.classical.classical_makespans` deals a panel's
schedules round-robin to ``_WALKERS`` walkers: the calling process walks
the first share and a forked child each other share
(:func:`repro.util.fork.fork_map`).  These tests hold the fork contract:
identical makespans and work counters for any walker count, errors that
keep their type, killed walkers named, every child reaped, no walker
outliving its parent, forks beside live threads and under a process pool.
"""

import os
import signal
import subprocess
import sys
import textwrap
import threading
import time
from pathlib import Path

import pytest

from repro.analysis import classical
from repro.analysis.classical import classical_makespans
from repro.platform import random_workload
from repro.schedule import ALL_HEURISTICS
from repro.schedule.random_schedule import random_schedule
from repro.stochastic import StochasticModel
from repro.stochastic.batch import WORK_COUNTERS, BatchedGridEngine

from tests.analysis.test_grid_batch_equivalence import assert_rv_equal

MODEL = StochasticModel(ul=1.01, grid_n=65)
WORKLOAD = random_workload(30, 4, rng=21)


def panel(n_random: int = 5) -> list:
    """Random schedules plus the heuristics: unequal level counts."""
    schedules = [random_schedule(WORKLOAD, rng=40 + r) for r in range(n_random)]
    return schedules + [ALL_HEURISTICS[h](WORKLOAD) for h in ("heft", "bil", "bmct")]


def walk(schedules, walkers: int, monkeypatch, engine=None) -> list:
    """``classical_makespans`` split across ``walkers`` walkers."""
    monkeypatch.setattr(classical, "_WALKERS", walkers)
    return classical_makespans(schedules, MODEL, engine=engine)


def assert_all_reaped() -> None:
    """No child of this process is left, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def in_walker(action):
    """A ``_walk_share`` that runs ``action`` in every forked walker."""
    parent = os.getpid()
    walk_share = classical._walk_share

    def patched(schedules, eng):
        if os.getpid() != parent:
            action()
        return walk_share(schedules, eng)

    return patched


@pytest.fixture(scope="module")
def one_walker_bytes():
    """The panel's makespans walked by the calling process alone."""
    classical_walkers = classical._WALKERS
    classical._WALKERS = 1
    try:
        return classical_makespans(panel(), MODEL)
    finally:
        classical._WALKERS = classical_walkers


class TestSplitWalks:
    @pytest.mark.parametrize("walkers", [1, 2, 3])
    def test_makespans_identical_for_any_walker_count(
        self, monkeypatch, one_walker_bytes, walkers
    ):
        shares: list = []
        fork_map = classical.fork_map

        def counting(fn, items):
            items = list(items)
            shares.append(len(items))
            return fork_map(fn, items)

        monkeypatch.setattr(classical, "fork_map", counting)
        got = walk(panel(), walkers, monkeypatch)
        assert shares == [walkers]
        assert len(got) == len(one_walker_bytes)
        for k, (a, b) in enumerate(zip(got, one_walker_bytes)):
            assert_rv_equal(a, b, f"schedule {k}, {walkers} walkers")
        assert_all_reaped()

    def test_work_counters_are_the_sum_over_the_shares(self, monkeypatch):
        schedules, walkers = panel(), 3
        engine = BatchedGridEngine(MODEL)
        walk(schedules, walkers, monkeypatch, engine=engine)
        alone = []
        for k in range(walkers):
            copy = BatchedGridEngine(MODEL)  # a copy of the fresh engine
            classical._walk_share(schedules[k::walkers], copy)
            alone.append(copy.stats)
        for name in WORK_COUNTERS:
            assert engine.stats[name] == sum(s[name] for s in alone), name
        assert engine.stats["conv_macs"] > alone[0]["conv_macs"] > 0
        # The pools describe the caller's engine: its share alone.
        for name in ("rv_pool", "add_memo", "max_memo", "value_pool"):
            assert engine.stats[name] == alone[0][name], name

    def test_one_schedule_is_never_split(self, monkeypatch):
        def no_fork():
            raise AssertionError("forked a one-schedule walk")

        monkeypatch.setattr(os, "fork", no_fork)
        (got,) = walk(panel()[:1], 4, monkeypatch)
        monkeypatch.undo()
        (want,) = walk(panel()[:1], 1, monkeypatch)
        assert_rv_equal(got, want)


class TestForkContract:
    def test_walker_error_keeps_its_type_and_message(
        self, monkeypatch, one_walker_bytes
    ):
        def fail():
            raise ValueError("walker share failed on purpose")

        monkeypatch.setattr(classical, "_walk_share", in_walker(fail))
        with pytest.raises(ValueError, match="walker share failed on purpose") as err:
            walk(panel(), 2, monkeypatch)
        assert any("raised in panel walker" in note for note in err.value.__notes__)
        assert_all_reaped()
        # The next walk splits and keeps its bytes.
        monkeypatch.undo()
        for a, b in zip(walk(panel(), 2, monkeypatch), one_walker_bytes):
            assert_rv_equal(a, b)

    def test_killed_walker_is_an_error_that_names_the_signal(self, monkeypatch):
        def die():
            os.kill(os.getpid(), signal.SIGKILL)

        monkeypatch.setattr(classical, "_walk_share", in_walker(die))
        with pytest.raises(RuntimeError, match="killed by SIGKILL"):
            walk(panel(), 3, monkeypatch)
        assert_all_reaped()

    def test_caller_failure_kills_and_reaps_the_walkers(self, monkeypatch):
        parent = os.getpid()
        walk_share = classical._walk_share

        def caller_fails(schedules, eng):
            if os.getpid() == parent:
                raise KeyError("the caller's own share failed")
            time.sleep(60)  # killed long before this ends
            return walk_share(schedules, eng)

        monkeypatch.setattr(classical, "_walk_share", caller_fails)
        start = time.monotonic()
        with pytest.raises(KeyError, match="own share failed"):
            walk(panel(), 3, monkeypatch)
        assert time.monotonic() - start < 30
        assert_all_reaped()

    def test_walk_forked_beside_a_live_thread(self, monkeypatch, tmp_path, one_walker_bytes):
        # A thread that keeps taking a lock and touching a file, as a
        # queue worker's heartbeat does while its case walks.
        beat = tmp_path / "claim"
        beat.touch()
        lock = threading.Lock()
        halt = threading.Event()

        def heartbeat():
            while not halt.is_set():
                with lock:
                    os.utime(beat)

        thread = threading.Thread(target=heartbeat, daemon=True)
        thread.start()
        try:
            got = walk(panel(), 2, monkeypatch)
            assert thread.is_alive()
        finally:
            halt.set()
            thread.join(timeout=10)
        for a, b in zip(got, one_walker_bytes):
            assert_rv_equal(a, b)
        assert_all_reaped()

    @pytest.mark.fleet
    def test_walker_dies_with_its_parent(self, tmp_path):
        pid_file = tmp_path / "walker.pid"
        script = textwrap.dedent(
            f"""
            import os, time
            from repro.analysis import classical
            from repro.platform import random_workload
            from repro.schedule import heft
            from repro.stochastic import StochasticModel

            parent = os.getpid()
            def stall(schedules, eng):
                if os.getpid() != parent:
                    with open({str(pid_file)!r} + ".tmp", "w") as f:
                        f.write(str(os.getpid()))
                    os.replace({str(pid_file)!r} + ".tmp", {str(pid_file)!r})
                    time.sleep(60)
                return [], {{}}
            classical._walk_share = stall
            classical._WALKERS = 2
            schedule = heft(random_workload(10, 2, rng=1))
            classical.classical_makespans([schedule] * 2, StochasticModel())
            """
        )
        src = Path(__file__).resolve().parents[2] / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(src), env.get("PYTHONPATH")])
        )
        proc = subprocess.Popen([sys.executable, "-c", script], env=env)
        walker = None
        try:
            deadline = time.monotonic() + 60
            while not pid_file.exists():
                assert proc.poll() is None, "the walk ended before it forked"
                assert time.monotonic() < deadline, "no walker started"
                time.sleep(0.01)
            walker = int(pid_file.read_text())
            proc.kill()
            proc.wait(timeout=10)
            deadline = time.monotonic() + 2.0
            while _running(walker) and time.monotonic() < deadline:
                time.sleep(0.01)
            assert not _running(walker), "the walker outlived its parent"
        finally:
            proc.kill()
            proc.wait(timeout=10)
            if walker is not None and _running(walker):
                os.kill(walker, signal.SIGKILL)


def _running(pid: int) -> bool:
    """Whether ``pid`` is a live process (a zombie has ended)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] not in ("Z", "X")


@pytest.mark.fleet
def test_pool_campaign_after_the_parent_split_a_panel(monkeypatch, tmp_path, one_walker_bytes):
    from repro.campaign import (
        ArtifactCache,
        Campaign,
        CampaignCase,
        ProcessPoolBackend,
        SerialBackend,
    )
    from repro.experiments.cases import CaseSpec

    for a, b in zip(walk(panel(), 2, monkeypatch), one_walker_bytes):
        assert_rv_equal(a, b)
    cases = [
        CampaignCase(spec=spec, base_seed=11, n_random=6, grid_n=65)
        for spec in (CaseSpec("ge", 4, 1.01), CaseSpec("random", 10, 1.1))
    ]
    serial = ArtifactCache(tmp_path / "serial")
    forked = ArtifactCache(tmp_path / "forked")
    Campaign(cases, backend=SerialBackend(), cache=serial).run()
    Campaign(cases, backend=ProcessPoolBackend(2), cache=forked).run()
    names = sorted(p.name for p in serial.root.glob("*.json"))
    assert len(names) == 2
    for name in names:
        assert (forked.root / name).read_bytes() == (serial.root / name).read_bytes()
