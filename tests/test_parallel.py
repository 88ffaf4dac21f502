import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import concurrent.futures
import pytest

from tir.cli import build_parser
from tir.parallel import ItemError, map_ordered, usable_cpus

SRC = Path(__file__).resolve().parents[1] / "src"


def _square_or_fail(n: int) -> tuple[int, int]:
    """(n * n, pid); fails on multiples of 5 above 0."""
    if n and n % 5 == 0:
        raise ValueError(f"no square for {n}")
    return n * n, os.getpid()


class _InlinePool:
    """A ProcessPoolExecutor stand-in that records its arguments and runs in the caller."""

    made: list[dict] = []

    def __init__(self, max_workers, mp_context):
        self.made.append({"max_workers": max_workers, "start_method": mp_context.get_start_method()})

    def map(self, fn, items, chunksize):
        self.made[-1]["chunksize"] = chunksize
        return map(fn, items)

    def shutdown(self, cancel_futures):
        pass


@pytest.fixture
def inline_pool(monkeypatch):
    _InlinePool.made = []
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _InlinePool)
    return _InlinePool.made


class TestInProcess:
    def test_results_keep_input_order(self):
        assert [sq for sq, _ in map_ordered(_square_or_fail, [3, 1, 2])] == [9, 1, 4]

    @pytest.mark.parametrize("jobs, items", [(1, [1, 2, 3]), (4, [7])])
    def test_one_job_or_one_item_runs_in_the_caller(self, jobs, items):
        assert {pid for _, pid in map_ordered(_square_or_fail, items, jobs)} == {os.getpid()}

    def test_no_fork_start_method_runs_in_the_caller(self, monkeypatch, inline_pool):
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        assert {pid for _, pid in map_ordered(_square_or_fail, [1, 2, 3], 2)} == {os.getpid()}
        assert inline_pool == []

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


class TestPoolArguments:
    @pytest.mark.parametrize("jobs, n, workers, chunksize", [(8, 3, 3, 1), (2, 108, 2, 14), (3, 16, 3, 2)])
    def test_workers_are_capped_at_the_item_count(self, inline_pool, jobs, n, workers, chunksize):
        assert [sq for sq, _ in map_ordered(_square_or_fail, [2] * n, jobs)] == [4] * n
        assert inline_pool == [{"max_workers": workers, "start_method": "fork", "chunksize": chunksize}]


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(), reason="needs the fork start method")
class TestForkedWorkers:
    def test_results_match_the_serial_run_and_come_from_workers(self):
        items = [1, 2, 3, 4, 6, 7, 8]
        forked = map_ordered(_square_or_fail, items, 2)
        assert [sq for sq, _ in forked] == [sq for sq, _ in map_ordered(_square_or_fail, items)]
        assert os.getpid() not in {pid for _, pid in forked}
        assert multiprocessing.active_children() == []

    def test_first_failure_in_input_order_wins(self):
        # Items 10 and 15 fail too, and may fail first in time.
        with pytest.raises(ItemError) as failed:
            map_ordered(_square_or_fail, [1, 2, 5, 10, 3, 15], 2)
        assert failed.value.index == 2
        assert type(failed.value.__cause__) is ValueError
        assert str(failed.value.__cause__) == "no square for 5"
        assert multiprocessing.active_children() == []


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
    code = ("import sys; import tir.cli; "
            "print(sorted(m for m in ('multiprocessing', 'concurrent.futures') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(SRC)},
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"

