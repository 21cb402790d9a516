"""Contiguous chunks of a list mapped over forked worker processes.

`map_chunks(fn, items)` splits items into one contiguous chunk per usable
CPU, runs fn on the first chunk in this process and on each other chunk in a
forked child, and returns the chunks' results in chunk order. A caller whose
results are merged in that order therefore gets what one process would give,
whatever the number of workers. `build.count_corpus` counts the edges of
document chunks this way, `tfmn build` writes its network JSON and GraphML
as two items, and `stats` runs the realizations of seed chunks. Two things
cross from a child: fn's return value, so what a chunk has to report, such
as the swap counts from which `stats` warns of a rewiring that fell short,
is part of fn's result; and the stage times the child recorded
(`tfmn.stage_times`), which are added to this process's record once every
child has returned.
"""

from __future__ import annotations

import os
from typing import Callable, TypeVar

from . import add_time, stage_times

T = TypeVar("T")


def _usable_cpus() -> int:
    """CPUs this process may run on; 1 where it cannot fork."""
    if not hasattr(os, "fork"):
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def map_chunks(fn: Callable[[list], T], items: list) -> list[T]:
    """[fn(chunk) for chunk in chunks], for contiguous chunks of items of
    near-equal size, one per usable CPU and never more than there are items
    (always at least one); the first chunk is run by this process, each
    other one by a forked child.

    fn reports through its result: a child pickles fn's result and the
    stage times it recorded, or the exception fn raised, back through a
    pipe, and nothing else the child does is gathered or issued again here.
    The chunks are read in order, and a child's exception is raised again
    with its type and message. The children's stage times are added to this
    process's only once every child has returned a result, so a call that
    raises adds none of them. Children leave through os._exit, so they
    flush no inherited buffer and run no exit handler of this process.
    Every child is killed and reaped before this returns or raises.
    Children are forked, not spawned, because fn may be a closure, which
    does not pickle; the commands start no thread, so the fork copies no
    lock held by another thread.
    """
    workers = max(1, min(len(items), _usable_cpus()))
    if workers == 1:
        return [fn(items)]
    import pickle
    import signal

    bounds = [len(items) * k // workers for k in range(workers + 1)]
    chunks = [items[a:b] for a, b in zip(bounds, bounds[1:])]
    children: list[tuple[int, int]] = []  # (pid, read end of its pipe)
    try:
        for chunk in chunks[1:]:
            read_end, write_end = os.pipe()
            try:
                pid = os.fork()
            except BaseException:
                os.close(read_end)
                os.close(write_end)
                raise
            if pid == 0:
                _worker(fn, chunk, write_end)
            os.close(write_end)
            children.append((pid, read_end))
        results, records = [fn(chunks[0])], []
        for pid, read_end in children:
            with open(read_end, "rb", closefd=False) as pipe:
                data = pipe.read()
            if not data:
                raise RuntimeError(f"worker {pid} exited without a result")
            status, value, record = pickle.loads(data)  # written by the child forked above
            if status == "error":
                raise value
            results.append(value)
            records.append(record)
        for record in records:
            for name, (seconds, items) in record.items():
                add_time(name, seconds, items)
        return results
    finally:
        for pid, read_end in children:
            os.close(read_end)
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            os.waitpid(pid, 0)


def _worker(fn, chunk: list, write_end: int) -> None:
    """Body of a forked child: write the pickled outcome of its chunk, with
    the stage times of that chunk alone, to the pipe and exit, never
    returning into the caller's stack. A child that exits without writing
    is reported by the parent."""
    import pickle

    code = 1
    try:
        stage_times.clear()  # the parent's record, copied by the fork
        try:
            outcome = ("ok", fn(chunk), stage_times)
        except Exception as exc:  # raised again by the parent
            outcome = ("error", exc, None)
        with open(write_end, "wb") as pipe:
            pipe.write(pickle.dumps(outcome))
        code = 0
    finally:
        os._exit(code)
