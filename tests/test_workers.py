import multiprocessing
import os

import numpy as np
import pytest

from volswitch import workers
from volswitch.exceptions import WorkerExitedError

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"), reason="workers need fork")


def _answer_then(end, failure):
    end.send(("head", 2))
    end.send_bytes(np.arange(2.0))
    if failure == "raise":
        raise KeyError("after the head")
    if failure == "exit":
        os._exit(4)


@pytest.mark.parametrize("failure", [None, "raise", "exit"])
def test_a_workers_exception_or_exit_reaches_the_caller_after_its_answer(failure):
    worker = workers.start(_answer_then, failure, name="the test worker")
    try:
        assert worker.recv() == ("head", 2)
        frame = np.empty(2)
        worker.recv_bytes_into(frame)
        assert frame.tolist() == [0.0, 1.0]
        if failure == "raise":
            with pytest.raises(KeyError, match="after the head"):
                worker.recv()
        else:
            code = 0 if failure is None else 4
            with pytest.raises(WorkerExitedError, match=f"^the test worker exited with code {code}$"):
                worker.recv_bytes_into(frame)
    finally:
        worker.stop()
    assert not multiprocessing.active_children()


def test_no_worker_is_forked_in_a_daemonic_process():
    with multiprocessing.get_context("fork").Pool(1) as pool:
        assert pool.apply(workers.fork_cpus) == 1
    assert not multiprocessing.active_children()


def test_without_cpu_affinity_no_worker_is_forked(monkeypatch):
    # as on macOS, which has fork but no os.sched_getaffinity
    monkeypatch.delattr(os, "sched_getaffinity")
    assert workers.fork_cpus() == 1


def _return_at_once(end):
    pass


def test_sending_to_a_worker_that_has_exited_names_its_exit_code():
    worker = workers.start(_return_at_once, name="the test worker", duplex=True)
    try:
        worker.process.join(timeout=60)
        with pytest.raises(WorkerExitedError, match="^the test worker exited with code 0$"):
            worker.send_bytes(b"posteriors")
    finally:
        worker.stop()
    assert not multiprocessing.active_children()
