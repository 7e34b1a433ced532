import signal

import pytest


@pytest.fixture()
def ten_seconds():
    """Fail a search that runs past 10 s instead of hanging the suite.

    The alarm fails the test without a traceback: formatting the frame it
    interrupts can crash pytest's printer and end the whole session."""

    def expire(signum, frame):
        pytest.fail("the search ran past 10 s", pytrace=False)

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(10)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
