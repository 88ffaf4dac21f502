"""Order-preserving parallel mapping over independent work items.

With more than one job, the calls run in worker processes forked from the
caller, so CPU-bound Python work runs in parallel instead of taking turns
under one interpreter lock. `fn` and the items reach the workers through
the fork itself: nothing is pickled on the way out, so `fn` may be any
callable. The parent writes the item indices as 4-byte records into one
pipe, and each worker reads one index at a time, so a worker that draws
slow items simply takes fewer of them. At the end of the pipe a worker
pickles its `(index, outcome)` pairs into a pipe of its own and exits;
results and exceptions come back that way, in input order. The pool lives
for one call: no worker outlives it, whether the call returns, an item
fails, a worker dies, or the caller is interrupted. With one job, one item,
or no `os.fork` (as on Windows), the calls run in the calling process.

The modules the pool needs are imported only when a pool starts, so
importing tir does not pay for them.
"""

from __future__ import annotations

import os
from functools import partial
from typing import Callable, Iterable, TypeVar

T = TypeVar("T")
R = TypeVar("R")

# POSIX's smallest PIPE_BUF: a write of at most this many bytes reaches a
# pipe whole, so the index records, written in blocks of this size, never
# arrive in part.
_PIPE_BUF = 512
_RECORD = "<I"  # one item index


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
    """`(True, fn(item))`, or `(False, exc)` if it raised: a failure waits for its turn in input order."""
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

    Up to `jobs` forked workers (never more than there are items) take the
    items one at a time. If any call raises, ItemError names the first
    failing item in input order, whatever order the workers finished in. A
    worker that ends without returning its results (killed by a signal, say)
    raises RuntimeError.
    """
    work = list(items)
    workers = min(jobs, len(work))
    if workers > 1 and hasattr(os, "fork"):
        return _collect(_forked_outcomes(fn, work, workers))
    return _collect(map(partial(_outcome, fn), work))


def _forked_outcomes(fn, work: list, workers: int) -> list:
    """Every item's `_outcome`, in input order, from `workers` forked children."""
    import pickle
    import signal
    import struct

    tasks, feed = os.pipe()
    open_fds = {tasks, feed}  # the parent's ends, until it closes them
    children = {}  # pid -> read end of its result pipe, until the child is reaped
    try:
        for _ in range(workers):
            result_read, result_write = os.pipe()
            open_fds |= {result_read, result_write}
            pid = os.fork()
            if pid == 0:
                _serve(fn, work, tasks, result_write, open_fds - {tasks, result_write})
            children[pid] = result_read
            open_fds.remove(result_write)
            os.close(result_write)
        open_fds.remove(tasks)
        os.close(tasks)

        records = struct.pack(f"<{len(work)}I", *range(len(work)))
        try:
            for start in range(0, len(records), _PIPE_BUF):
                os.write(feed, records[start:start + _PIPE_BUF])
        except BrokenPipeError:  # every worker has ended early; reading their results says how
            pass
        open_fds.remove(feed)
        os.close(feed)

        outcomes = [None] * len(work)
        for pid, result_read in list(children.items()):
            chunks = []
            while chunk := os.read(result_read, 1 << 16):
                chunks.append(chunk)
            open_fds.remove(result_read)
            os.close(result_read)
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del children[pid]
            if status != 0 or not chunks:
                ended = f"was killed by signal {-status}" if status < 0 else f"exited with status {status}"
                raise RuntimeError(f"worker process {pid} {ended} before returning its results")
            for index, outcome in pickle.loads(b"".join(chunks)):
                outcomes[index] = outcome
        return outcomes
    finally:
        for pid in children:
            os.kill(pid, signal.SIGKILL)  # a child that has exited stays a zombie until reaped, so this finds it
        for pid in children:
            os.waitpid(pid, 0)
        for fd in open_fds:
            os.close(fd)


def _serve(fn, work: list, tasks: int, result: int, others) -> None:
    """A forked worker's whole life: it never returns, it exits.

    It closes the descriptors `others`, runs each item whose index it reads
    from `tasks`, and at the end of that pipe writes its pickled
    `(index, outcome)` pairs to `result`. Exit status 0 means they were
    written whole.
    """
    status = 1
    try:
        import pickle
        import struct

        for fd in others:
            os.close(fd)
        done = []
        while record := os.read(tasks, struct.calcsize(_RECORD)):
            (index,) = struct.unpack(_RECORD, record)
            done.append((index, _outcome(fn, work[index])))
        data = memoryview(pickle.dumps(done, pickle.HIGHEST_PROTOCOL))
        while data:
            data = data[os.write(result, data):]
        status = 0
    except Exception:
        import sys
        import traceback

        traceback.print_exc()
        sys.stderr.flush()
    finally:
        os._exit(status)
