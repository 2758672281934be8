"""A time limit for every test, so a hang fails the test that hangs.

The slowest test takes a few seconds (the CLI snapshot runs, about 3.6 s
on one core of a shared 2-vCPU host), so a test still running after
TIME_LIMIT_S seconds is taken to hang.  The limit uses SIGALRM and is
skipped where the platform has none.
"""

import signal

import pytest

TIME_LIMIT_S = 60


class TimeLimitExceeded(BaseException):
    """Not an Exception, so neither hypothesis (which would replay and
    shrink the example, unlimited) nor an ``except Exception`` in the code
    under test catches it; pytest reports it as the test's failure."""


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    if not hasattr(signal, "SIGALRM"):
        yield
        return

    def expire(signum, frame):
        raise TimeLimitExceeded(f"{item.nodeid} still running after {TIME_LIMIT_S} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(TIME_LIMIT_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
