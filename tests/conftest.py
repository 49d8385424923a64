import os
import sys

import pytest
from hypothesis import settings

sys.path.insert(0, os.path.dirname(__file__))

# Property tests run inside Tier-1: the same examples on every run, a bounded
# count, no per-example deadline and no example database left on disk.
settings.register_profile("tier1", derandomize=True, max_examples=100, deadline=None, database=None)
settings.load_profile("tier1")


@pytest.fixture(autouse=True)
def no_child_process_outlives_the_test():
    """After each test this process has no child, running or unreaped: a
    forked AIS worker left behind fails the test that left it."""
    yield
    try:
        left = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"a child process outlived the test: waitpid(-1, WNOHANG) gave {left}")
