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
def filled_rows(monkeypatch):
    """Every R_g row filled from here on, as (g, u) in words, in fill order.

    A row is filled when `Presentation.right_operator_row` reads it while its
    slot is still None; the rows it reads for the prefix count too.
    """
    cells = []
    fill = Presentation.right_operator_row

    def counting(self, g, iu):
        if self.right_operators()[g][iu] is None:
            cells.append((self.generators()[g], self.full_basis()[iu]))
        return fill(self, g, iu)

    monkeypatch.setattr(Presentation, "right_operator_row", counting)
    return cells
