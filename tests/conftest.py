"""Counting fixtures shared by the tests that pin how much a path computes."""

import pytest

import tcbounds.algebra as algebra
from tcbounds.algebra import Presentation


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
