import contextlib
import os
import signal

import numpy as np
import pytest

from specgap import census

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")


@pytest.fixture(scope="session")
def census4():
    return census.enumerate_connected(4)


@pytest.fixture(scope="session")
def census5():
    return census.enumerate_connected(5)


@pytest.fixture(scope="session")
def census6():
    return census.enumerate_connected(6)


@pytest.fixture(scope="session")
def census7():
    return census.enumerate_connected(7)


@pytest.fixture(scope="session")
def census8_path():
    path = os.path.join(DATA_DIR, "connected8.g6")
    if not os.path.exists(path):
        pytest.skip("committed order-8 census file missing")
    return path


@pytest.fixture(scope="session")
def census9(census8_path):
    """The order-9 census as (9, forms), one int64 form per class,
    ascending: the whole extension of the committed order-8 census, built
    once per session."""
    source = census.Graph6Source(census8_path)
    bits = np.concatenate([bits for _, bits, _ in source._batches()])
    return census._extend(8, bits, complete=True)


@pytest.fixture
def time_limit():
    """time_limit(seconds): a context in which code still running after
    seconds raises TimeoutError."""
    @contextlib.contextmanager
    def limit(seconds):
        def expire(signum, frame):
            raise TimeoutError(f"still running after {seconds} s")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.alarm(seconds)
        try:
            yield
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
    return limit
