import contextlib
import os
import signal

import pytest


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail a test that leaves a child process running or unreaped."""
    yield
    try:
        pid, status = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:  # no children at all
        return
    if pid == 0:
        pytest.fail("a child process of the test is still running")
    pytest.fail(f"child process {pid} was left unreaped (wait status {status})")


@pytest.fixture
def forks(monkeypatch):
    """Two usable CPUs, so a run, or a long enough block, forks a producer;
    lists each producer's pid.

    A producer still running at teardown is killed and reaped, and the test
    fails; so does one left unreaped.
    """
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    pids, real_fork = [], os.fork

    def fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    yield pids
    left = []
    for pid in pids:
        with contextlib.suppress(ChildProcessError):  # reaped: as it should be
            if os.waitpid(pid, os.WNOHANG)[0] == 0:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            left.append(pid)
    if left:
        pytest.fail(f"producers {left} were not reaped when their blocks ended")
