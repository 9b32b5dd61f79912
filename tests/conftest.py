"""Checks that run after every test."""

import os

import pytest


@pytest.fixture(autouse=True)
def no_child_process_left():
    """The test leaves no child process, running or waiting to be reaped:
    the bootstrap's workers are ``os.fork`` children, which no process
    module tracks, so the check asks the kernel with one system call."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    detail = f"pid {pid}, exited" if pid else "still running"
    pytest.fail(f"the test left a child process ({detail})")
