"""Suite-wide guard: a test that runs past HANG_SECONDS ends the run.

A broken elimination can loop forever instead of failing.  faulthandler (stdlib)
is armed around each test's set-up, call and tear-down: past the limit it writes
every thread's traceback to stderr and exits the process with status 1.
"""
import faulthandler
import sys

import pytest

HANG_SECONDS = 300  # the slowest test takes under 10 s on a 2-core machine


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_protocol(item, nextitem):
    faulthandler.dump_traceback_later(HANG_SECONDS, exit=True, file=sys.__stderr__)
    try:
        yield
    finally:
        faulthandler.cancel_dump_traceback_later()
