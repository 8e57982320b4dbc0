"""One bounded-time idiom for the tests: run a call under a wall-clock
deadline, so a regression to a quadratic or cubic search fails in about a
second instead of hanging the run."""
import signal

import pytest


class _Overrun(BaseException):
    """Raised by the deadline's alarm; not an Exception, so no handler in the
    code under test can swallow it."""


def _within(seconds, call, *args):
    """call(*args), failing the test once `seconds` of wall time pass.
    SIGALRM is delivered to the main thread, where pytest runs the test;
    CPython checks for it between bytecodes and inside `re` matching.
    The failure carries no traceback: the alarm can land in a frame with no
    line number, which pytest cannot render."""
    def overrun(signum, frame):
        raise _Overrun

    old_handler = signal.signal(signal.SIGALRM, overrun)
    old_timer = signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return call(*args)
    except _Overrun:
        pass
    finally:
        signal.setitimer(signal.ITIMER_REAL, *old_timer)
        signal.signal(signal.SIGALRM, old_handler)
    pytest.fail(f"{call.__name__} took over {seconds}s", pytrace=False)
