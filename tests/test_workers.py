import os
import time

import pytest

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
