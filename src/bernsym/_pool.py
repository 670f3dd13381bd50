"""A pool of forked worker processes, for sweep_verify.

run(fn, count, workers) returns [fn(0), ..., fn(count - 1)], each call
made in one of `workers` processes forked from the caller.  A worker
holds what the caller held when it forked, fn and its inputs included,
so only an index travels to it and only fn's pickled result comes back.
Indices are dealt on demand: a worker is sent its next index once the
caller has read the result of its last, and works on it while the caller
unpickles that result.  An index is sent as 8 bytes, and a result as its
length in 8 bytes, then its pickle; each is read exactly, so no read
takes bytes of the next message.

An exception raised by fn is raised again in the caller; a worker that
dies raises ChildProcessError.  On every way out the pipes are closed,
every worker still alive is killed, and all are reaped.  A worker ends in
os._exit, so it never returns into the caller's stack and never flushes
the caller's buffered output.

The module is imported only where a pool starts.
"""

import os
import pickle
import select
import signal


def _read(pipe, n: int) -> bytearray:
    # exactly n bytes from an unbuffered pipe; EOFError if it ends first
    data = bytearray(n)
    view, got = memoryview(data), 0
    while got < n:
        k = pipe.readinto(view[got:])
        if not k:
            raise EOFError
        got += k
    return data


def _serve(fn, tasks, results):
    # a worker: an index in, fn's result or its exception out, until the
    # caller closes the task pipe
    while True:
        try:
            i = int.from_bytes(_read(tasks, 8), "little")
        except EOFError:
            return
        try:
            out = pickle.dumps((True, fn(i)))
        except Exception as exc:
            out = pickle.dumps((False, exc))
        results.write(len(out).to_bytes(8, "little"))
        results.write(out)
        results.flush()


def _fork(fn, inherited):
    # one worker, and the caller's ends of its two pipes; the worker closes
    # the ends of the earlier workers' pipes that it inherited, so that each
    # worker's death reads as the end of its own result pipe
    task_r, task_w = os.pipe()
    result_r, result_w = os.pipe()
    try:
        pid = os.fork()
    except OSError:  # no process could be started: the pipes go unused
        for fd in (task_r, task_w, result_r, result_w):
            os.close(fd)
        raise
    if pid == 0:
        code = 1
        try:
            for f in inherited:
                f.close()
            os.close(task_w)
            os.close(result_r)
            with open(task_r, "rb", buffering=0) as tasks, open(result_w, "wb") as results:
                _serve(fn, tasks, results)
            code = 0
        finally:
            os._exit(code)
    os.close(task_r)
    os.close(result_w)
    # an index is written in one write of 8 bytes, which a pipe takes
    # whole, so the caller's ends need no buffer
    return pid, open(task_w, "wb", buffering=0), open(result_r, "rb", buffering=0)


def _death(pid, alive) -> ChildProcessError:
    # a worker whose pipe broke, reaped: a worker closes its pipes only as
    # it exits
    _, status = os.waitpid(pid, 0)
    alive.remove(pid)
    code = os.waitstatus_to_exitcode(status)
    if code < 0:
        return ChildProcessError(
            f"a worker process was killed by signal {-code} ({signal.Signals(-code).name})"
        )
    return ChildProcessError(f"a worker process exited with status {code}")


def run(fn, count: int, workers: int) -> list:
    """[fn(0), ..., fn(count - 1)], computed by min(workers, count) forked
    processes; fn's results must pickle."""
    results = [None] * count
    alive = []  # the workers' pids, until reaped
    files = []  # the caller's ends of every pipe
    busy = {}  # result pipe -> (pid, task pipe, index in flight)
    dealt = 0

    def deal(pid, tasks, back):
        nonlocal dealt
        try:
            tasks.write(dealt.to_bytes(8, "little"))
        except BrokenPipeError:
            raise _death(pid, alive) from None
        busy[back] = pid, tasks, dealt
        dealt += 1

    try:
        for _ in range(min(workers, count)):
            pid, tasks, back = _fork(fn, files)
            alive.append(pid)
            files += tasks, back
            deal(pid, tasks, back)
        while busy:
            ready, _, _ = select.select(list(busy), [], [])
            for back in ready:
                pid, tasks, i = busy.pop(back)
                try:
                    message = _read(back, int.from_bytes(_read(back, 8), "little"))
                except EOFError:
                    raise _death(pid, alive) from None
                if dealt < count:
                    deal(pid, tasks, back)
                ok, value = pickle.loads(message)
                if not ok:
                    raise value
                results[i] = value
    except BaseException:
        for pid in alive:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for f in files:
            f.close()
        for pid in alive:
            os.waitpid(pid, 0)
    return results
