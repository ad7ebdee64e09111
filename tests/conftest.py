import signal

import pytest

import goldens
from fcn.semantics import Interp


@pytest.fixture(scope="session")
def bakery():
    sig, val = goldens.bakery_signature()
    return sig, val


@pytest.fixture(scope="session")
def interp(bakery):
    sig, val = bakery
    return Interp(sig, val)


@pytest.fixture
def deadline():
    """Fail the test, rather than hang, once it has run for 60 seconds."""

    def expire(signum, frame):
        raise TimeoutError("the test ran for 60 seconds")

    old = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, old)
