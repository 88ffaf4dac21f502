"""Order-preserving parallel mapping over independent work items.

With more than one job, the calls run in worker processes forked from the
caller, so CPU-bound Python work runs in parallel instead of taking turns
under one interpreter lock. `fn` and the items reach the workers by pickle,
so `fn` must be a module-level function or a functools.partial of one; the
results and exceptions come back the same way. The pool lives for one call:
no worker outlives it. With one job, one item, or no "fork" start method
(as on Windows), the calls run in the calling process.

The pool modules are imported only when a pool starts, so importing tir
does not pay for them.
"""

from __future__ import annotations

import os
from functools import partial
from typing import Callable, Iterable, TypeVar

T = TypeVar("T")
R = TypeVar("R")


class ItemError(Exception):
    """`fn` raised on the item at `index`; the exception it raised is the `__cause__`."""

    def __init__(self, index: int):
        super().__init__(f"item {index} failed")
        self.index = index


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the OS has one, else every CPU."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _outcome(fn, item):
    """`(True, fn(item))`, or `(False, exc)` if it raised: a failure keeps its item's place in a chunk."""
    try:
        return True, fn(item)
    except Exception as exc:
        return False, exc


def _collect(outcomes) -> list:
    results = []
    for ok, value in outcomes:
        if not ok:
            raise ItemError(len(results)) from value
        results.append(value)
    return results


def map_ordered(fn: Callable[[T], R], items: Iterable[T], jobs: int = 1) -> list[R]:
    """Apply `fn` to every item, returning results in input order.

    Up to `jobs` forked workers (never more than there are items) share the
    items in chunks. If any call raises, ItemError names the first failing
    item in input order, whatever order the workers finished in.
    """
    work = list(items)
    workers = min(jobs, len(work))
    if workers > 1:
        import multiprocessing

        if "fork" in multiprocessing.get_all_start_methods():
            from concurrent.futures import ProcessPoolExecutor

            pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))
            try:
                # About four chunks per worker: few round trips, even loads.
                chunksize = -(-len(work) // (4 * workers))
                return _collect(pool.map(partial(_outcome, fn), work, chunksize=chunksize))
            finally:
                pool.shutdown(cancel_futures=True)
    return _collect(map(partial(_outcome, fn), work))
