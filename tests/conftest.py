import os

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
