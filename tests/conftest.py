"""Fixtures shared by the tests: a wall-clock limit on every test, a cleared
ring-facts memo around every test, and counters for the tests that pin how
much a path computes."""

import signal

import pytest

import tcbounds.algebra as algebra
from tcbounds.algebra import Presentation, _two_letter_patterns

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


@pytest.fixture(autouse=True)
def fresh_ring_facts():
    """Clear `algebra._RING_FACTS` before and after every test.

    The memo outlives a test, so a test that counts straightenings would
    otherwise count what earlier tests left, and a patched `straighten_word`
    would leave broken facts behind.  A test that patches straightening
    clears it again after the patch.
    """
    algebra._RING_FACTS.clear()
    yield
    algebra._RING_FACTS.clear()


@pytest.fixture
def straightened_words(monkeypatch):
    """Every word `straighten_word` is called on from here on, in call order."""
    words = []
    straighten = algebra.straighten_word

    def counting(word, parity):
        words.append(tuple(word))
        return straighten(word, parity)

    monkeypatch.setattr(algebra, "straighten_word", counting)
    algebra._RING_FACTS.clear()  # facts made before the patch went uncounted
    return words


def witness_fact_words(n):
    """The words `Presentation.witness_terms` straightens at n, in order.

    The two-letter patterns alone, shared with the decone check: E = e_12 ... e_1n
    and F = e_23 ... e_2n are admissible, so they are never straightened.
    """
    return _two_letter_patterns(n)


@pytest.fixture(name="witness_fact_words")
def witness_fact_words_fixture():
    return witness_fact_words


@pytest.fixture
def unlisted_basis(monkeypatch):
    """Fail the test if anything from here on lists the n! basis words or reads R_g."""
    def unlisted(self):
        raise AssertionError("the full basis was listed or R_g was read")

    monkeypatch.setattr(Presentation, "_coordinates", unlisted)
    monkeypatch.setattr(Presentation, "right_operators", unlisted)
