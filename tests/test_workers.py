import os
import time

import pytest

import tfmn
from tfmn import stage
from tfmn.workers import map_chunks

from conftest import assert_no_child_left


@pytest.mark.parametrize("n_items, k, sizes", [(5, 3, [1, 2, 2]), (2, 3, [1, 1]), (4, 2, [2, 2]),
                                               (3, 1, [3])])
def test_items_go_in_contiguous_chunks_one_per_worker(workers, n_items, k, sizes):
    workers(k)
    chunks = map_chunks(lambda chunk: [os.getpid()] * len(chunk), list(range(n_items)))
    assert chunks[0][0] == os.getpid()
    assert [len(chunk) for chunk in chunks] == sizes
    assert len({pid for chunk in chunks for pid in chunk}) == len(sizes)
    squares = map_chunks(lambda chunk: [i * i for i in chunk], list(range(n_items)))
    assert [v for chunk in squares for v in chunk] == [i * i for i in range(n_items)]
    assert_no_child_left()


def test_interrupt_in_the_parent_kills_every_worker(workers):
    def interrupted(chunk):
        if chunk[0] == 0:
            raise KeyboardInterrupt
        time.sleep(60)  # the workers' chunks
        return chunk

    workers(3)
    start = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        map_chunks(interrupted, list(range(6)))
    assert time.perf_counter() - start < 30
    assert_no_child_left()


def _timed(chunk):
    """Records stage "chunk" with an item and 10 ms per element of chunk;
    raises in the chunk that holds 5."""
    with stage("chunk", len(chunk)):
        time.sleep(0.01 * len(chunk))
        if 5 in chunk:
            raise ValueError("bad chunk")
    return chunk


def test_the_stage_times_of_the_workers_are_added_here(workers, stage_items):
    for k in (1, 2, 3):
        workers(k)
        tfmn.add_time("before", 0.5, 2)  # this process's, which a child must not send back
        assert [i for chunk in map_chunks(_timed, list(range(5))) for i in chunk] == list(range(5))
        seconds = tfmn.stage_times["chunk"][0]
        assert stage_items() == {"before": 2, "chunk": 5}
        assert seconds >= 0.05  # each chunk's sleep, wherever it ran
    assert_no_child_left()


def test_a_failed_call_adds_no_stage_times_of_the_workers(workers, stage_items):
    workers(3)  # chunks [0, 1], [2, 3] and [4, 5, 6]: the third raises after the second returned
    with pytest.raises(ValueError, match="^bad chunk$"):
        map_chunks(_timed, list(range(7)))
    assert stage_items() == {"chunk": 2}  # this process's own chunk
    assert_no_child_left()
