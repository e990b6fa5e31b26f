"""Fixtures shared by the tests: a wall-clock limit on every test, and counters
for the tests that pin how much a path computes."""

import signal

import pytest

import tcbounds.algebra as algebra
from tcbounds.algebra import Presentation

# seconds a test may run before it fails with its stack; above the 120 s
# timeouts the tests give their own subprocesses
TEST_TIME_LIMIT = 180


class TimeLimitExceeded(Exception):
    """Raised in a test that ran past TEST_TIME_LIMIT."""


@pytest.fixture(autouse=True)
def time_limit():
    """Fail a test that runs past TEST_TIME_LIMIT instead of letting the suite hang."""
    if not hasattr(signal, "SIGALRM"):
        yield
        return

    def expire(signum, frame):
        raise TimeLimitExceeded(f"test ran past {TEST_TIME_LIMIT} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, TEST_TIME_LIMIT)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def straightened_words(monkeypatch):
    """Every word `straighten_word` is called on from here on, in call order."""
    words = []
    straighten = algebra.straighten_word

    def counting(word, parity):
        words.append(tuple(word))
        return straighten(word, parity)

    monkeypatch.setattr(algebra, "straighten_word", counting)
    return words


@pytest.fixture
def unlisted_basis(monkeypatch):
    """Fail the test if anything from here on lists the n! basis words or reads R_g."""
    def unlisted(self):
        raise AssertionError("the full basis was listed or R_g was read")

    monkeypatch.setattr(Presentation, "_coordinates", unlisted)
    monkeypatch.setattr(Presentation, "right_operators", unlisted)
