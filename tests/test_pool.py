"""The forked pool behind sweep_verify, called directly."""

import os
import time

import pytest

from bernsym import _pool

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")


def _no_child_left():
    # every process this one forked has been reaped
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_results_come_back_in_index_order_from_the_workers(monkeypatch):
    # at most one worker per index is forked
    forks = []
    fork = _pool._fork
    monkeypatch.setattr(_pool, "_fork", lambda *args: forks.append(1) or fork(*args))
    parent = os.getpid()
    done = _pool.run(lambda i: (i, os.getpid()), 7, 2)
    assert [i for i, _ in done] == list(range(7))
    assert len({pid for _, pid in done}) == len(forks) == 2
    assert parent not in {pid for _, pid in done}
    assert _pool.run(lambda i: i * i, 3, 8) == [0, 1, 4]
    assert len(forks) == 2 + 3
    _no_child_left()


def test_indices_are_dealt_on_demand():
    # index 0 keeps one worker busy while the other is dealt every later index
    def work(i):
        if i == 0:
            time.sleep(0.5)
        return os.getpid()

    done = _pool.run(work, 5, 2)
    assert len(set(done[1:])) == 1
    assert done[0] not in done[1:]
    _no_child_left()


def test_an_exception_in_a_worker_is_raised_in_the_caller():
    def work(i):
        if i == 3:
            raise KeyError(i)
        return i

    with pytest.raises(KeyError, match="3"):
        _pool.run(work, 6, 2)
    _no_child_left()


def test_an_interrupt_in_the_caller_kills_and_reaps_every_worker(monkeypatch):
    # Ctrl-C reaches the caller while it waits on the workers, each of them
    # busy for far longer than the test may take
    def interrupt(*args):
        raise KeyboardInterrupt

    monkeypatch.setattr(_pool.select, "select", interrupt)
    began = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        _pool.run(lambda i: time.sleep(60), 4, 2)
    assert time.monotonic() - began < 30
    _no_child_left()

def test_a_worker_that_closes_its_task_pipe_is_a_child_process_error(monkeypatch):
    # the worker closes its task pipe before it sends its first result, so
    # the caller writes the next index into a pipe with no reader; the
    # worker's next read then fails, and it exits with status 1
    serve = _pool._serve

    def serve_one(fn, tasks, results):
        serve(lambda i: (fn(i), tasks.close()), tasks, results)

    monkeypatch.setattr(_pool, "_serve", serve_one)
    with pytest.raises(ChildProcessError, match="^a worker process exited with status 1$"):
        _pool.run(lambda i: i, 4, 1)
    _no_child_left()


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="lists open files in /proc")
def test_a_fork_that_fails_leaves_no_worker_and_no_pipe(monkeypatch):
    # the second fork fails: the first worker is killed and reaped, and
    # every pipe end opened for either worker is closed
    fork = os.fork
    forks = []

    def fork_once():
        forks.append(1)
        if len(forks) == 2:
            raise BlockingIOError("no process could be started")
        return fork()

    monkeypatch.setattr(os, "fork", fork_once)
    open_fds = sorted(os.listdir("/proc/self/fd"))
    with pytest.raises(BlockingIOError):
        _pool.run(lambda i: i, 4, 2)
    assert sorted(os.listdir("/proc/self/fd")) == open_fds
    _no_child_left()
