import os
import re
import subprocess
import sys
import textwrap
import time
from functools import partial
from pathlib import Path

import pytest

from tir.cli import build_parser
from tir.parallel import ItemError, map_ordered, usable_cpus

SRC = Path(__file__).resolve().parents[1] / "src"

needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")


@pytest.fixture(autouse=True)
def no_child_is_left():
    """After every case, this process has no child: none running and none unreaped."""
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _square_or_fail(n: int) -> tuple[int, int]:
    """(n * n, pid); fails on multiples of 5 above 0."""
    if n and n % 5 == 0:
        raise ValueError(f"no square for {n}")
    return n * n, os.getpid()


def _after_every_worker_starts(gate: Path, workers: int, fn, n):
    """fn(n); a process's first call first waits (up to 10 s) until `workers` processes have made one.

    So each of the first `workers` items goes to a worker of its own.
    """
    mine = gate / str(os.getpid())
    if not mine.exists():
        mine.touch()
        deadline = time.monotonic() + 10.0
        while len(list(gate.iterdir())) < workers and time.monotonic() < deadline:
            time.sleep(0.002)
    return fn(n)


def _run_script(code: str) -> str:
    """Stdout of `code` run by a fresh interpreter, which must finish within 60 s."""
    return subprocess.run([sys.executable, "-c", textwrap.dedent(code)], env={**os.environ, "PYTHONPATH": str(SRC)},
                          capture_output=True, text=True, check=True, timeout=60).stdout


class TestInProcess:
    def test_results_keep_input_order(self):
        assert [sq for sq, _ in map_ordered(_square_or_fail, [3, 1, 2])] == [9, 1, 4]

    @pytest.mark.parametrize("jobs, items", [(1, [1, 2, 3]), (4, [7])])
    def test_one_job_or_one_item_runs_in_the_caller(self, jobs, items):
        assert {pid for _, pid in map_ordered(_square_or_fail, items, jobs)} == {os.getpid()}

    def test_no_fork_runs_in_the_caller(self, monkeypatch):
        monkeypatch.delattr(os, "fork", raising=False)
        assert {pid for _, pid in map_ordered(_square_or_fail, [1, 2, 3], 2)} == {os.getpid()}

    def test_failure_names_the_first_failing_item(self):
        calls = []

        def record(n):
            calls.append(n)
            return _square_or_fail(n)

        with pytest.raises(ItemError) as failed:
            map_ordered(record, [1, 2, 5, 3, 10])
        assert failed.value.index == 2
        assert str(failed.value.__cause__) == "no square for 5"
        assert calls == [1, 2, 5]  # stops at the failure


@needs_fork
class TestForkedWorkers:
    def test_results_match_the_serial_run_and_come_from_workers(self):
        items = [1, 2, 3, 4, 6, 7, 8]
        forked = map_ordered(_square_or_fail, items, 2)
        assert [sq for sq, _ in forked] == [sq for sq, _ in map_ordered(_square_or_fail, items)]
        assert os.getpid() not in {pid for _, pid in forked}

    @pytest.mark.parametrize("jobs, n, workers", [(8, 3, 3), (2, 108, 2), (3, 16, 3)])
    def test_workers_are_capped_at_the_item_count(self, tmp_path, monkeypatch, jobs, n, workers):
        forked = []
        fork = os.fork

        def counting_fork():
            pid = fork()
            if pid:
                forked.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", counting_fork)
        fn = partial(_after_every_worker_starts, tmp_path, workers, _square_or_fail)
        results = map_ordered(fn, [2] * n, jobs)
        assert [sq for sq, _ in results] == [4] * n
        assert len(forked) == workers
        assert {pid for _, pid in results} == set(forked)

    def test_first_failure_in_input_order_wins(self, tmp_path):
        # Items 0, 1 and 2 all fail, each on a worker of its own, and item 0 fails last in time.
        def slow_ten(n):
            if n == 10:
                time.sleep(0.2)
            return _square_or_fail(n)

        with pytest.raises(ItemError) as failed:
            map_ordered(partial(_after_every_worker_starts, tmp_path, 3, slow_ten), [10, 15, 5, 1, 2, 3], 3)
        assert failed.value.index == 0
        assert type(failed.value.__cause__) is ValueError
        assert str(failed.value.__cause__) == "no square for 10"

    def test_more_indices_than_a_pipe_holds_all_come_back_in_order(self):
        n = 20_000  # 80 000 bytes of 4-byte indices: more than a 64 KiB pipe buffer
        assert map_ordered(lambda i: -i, range(n), 2) == [-i for i in range(n)]

    def test_a_killed_worker_raises_and_nothing_hangs(self):
        out = _run_script("""
            import os, signal
            from tir.parallel import map_ordered
            def killed_on_three(n):
                if n == 3:
                    os.kill(os.getpid(), signal.SIGKILL)
                return n
            try:
                map_ordered(killed_on_three, range(8), 2)
            except RuntimeError as exc:
                print(exc)
            try:
                os.waitpid(-1, os.WNOHANG)
            except ChildProcessError:
                print("no child left")
        """)
        assert re.fullmatch(r"worker process \d+ was killed by signal 9 before returning its results\nno child left\n",
                            out)

    def test_a_worker_that_exits_early_raises_naming_its_status(self):
        def exits_on_one(n):
            if n == 1:
                os._exit(0)
            return n

        with pytest.raises(RuntimeError, match=r"^worker process \d+ exited with status 0 before returning"):
            map_ordered(exits_on_one, range(4), 2)

    def test_an_unpicklable_result_gives_a_clear_error(self, capfd):
        with pytest.raises(RuntimeError, match=r"^worker process \d+ exited with status 1 before returning"):
            map_ordered(lambda n: (lambda: n), range(4), 2)
        assert "Can't pickle" in capfd.readouterr().err

    def test_an_interrupted_caller_kills_and_reaps_its_workers(self):
        # A worker interrupts the caller while every worker sleeps for a minute: the caller's
        # KeyboardInterrupt kills them, reaps them and reaches the caller at once.
        out = _run_script("""
            import os, signal, time
            from tir.parallel import map_ordered
            def interrupt_the_caller(n):
                if n == 0:
                    os.kill(os.getppid(), signal.SIGINT)
                time.sleep(60)
            start = time.monotonic()
            try:
                map_ordered(interrupt_the_caller, range(4), 2)
            except KeyboardInterrupt:
                print("interrupted", time.monotonic() - start < 30)
            try:
                os.waitpid(-1, os.WNOHANG)
            except ChildProcessError:
                print("no child left")
        """)
        assert out == "interrupted True\nno child left\n"


class TestDefaultJobs:
    def test_affinity_set_counts(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3, 5}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        assert usable_cpus() == 3
        required = {"index": [], "eval": ["--db", "d", "--mode", "hybrid"]}
        for command, extra in required.items():
            args = build_parser().parse_args([command, "--manifest", "m", "--root", "r", "--out", "o", *extra])
            assert args.jobs == 3

    @pytest.mark.parametrize("cpus, expected", [(6, 6), (None, 1)])
    def test_cpu_count_without_affinity(self, monkeypatch, cpus, expected):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        assert usable_cpus() == expected


def test_importing_the_cli_loads_no_pool_module():
    code = ("import sys; import tir.cli; from tir.parallel import map_ordered; map_ordered(abs, [-1, -2], 2); "
            "print(sorted(m for m in ('multiprocessing', 'concurrent.futures') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(SRC)},
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"
