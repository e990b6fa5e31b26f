"""Exact sparse row reduction over a field.

Vectors are dicts {column: nonzero value}.  An `EchelonBasis` keeps a reduced
row echelon basis of a subspace of F^width: every row has a leading 1 in its
pivot column, and pivot columns are eliminated from all other rows.  Because
of that, reducing a vector touches each pivot at most once.

Every elimination step is one row operation, `subtract_multiple` (target -=
factor * row in place, dropping entries that cancel).  `kernel_basis` is no
separate eliminator: it takes the RREF of the augmented rows [image_i | e_i]
with the image columns first, and the rows whose pivot falls in the source
block are the kernel, already in canonical RREF.
"""

from __future__ import annotations

from typing import Dict, List

Vec = Dict[int, object]


def subtract_multiple(field, target: Vec, factor, row: Vec) -> None:
    """target -= factor * row, in place; entries that cancel are dropped."""
    add, mul = field.add, field.mul
    minus = field.neg(factor)
    for col, val in row.items():
        contrib = mul(minus, val)
        prev = target.get(col)
        nv = add(prev, contrib) if prev is not None else contrib
        if nv:
            target[col] = nv
        else:
            target.pop(col, None)


class EchelonBasis:
    def __init__(self, field, width: int):
        self.field = field
        self.width = width
        self._rows: Dict[int, Vec] = {}  # pivot column -> row, row[pivot] == 1

    @property
    def dim(self) -> int:
        return len(self._rows)

    def is_full(self) -> bool:
        return len(self._rows) == self.width

    def reduce(self, vec: Vec) -> Vec:
        """Residual of vec after eliminating all pivot columns (vec untouched)."""
        r = dict(vec)
        rows, field = self._rows, self.field
        for p in sorted(c for c in r if c in rows):
            c = r.get(p)
            if c:
                subtract_multiple(field, r, c, rows[p])
        return r

    def contains(self, vec: Vec) -> bool:
        return not self.reduce(vec)

    def insert(self, vec: Vec) -> bool:
        """Add a vector to the span; returns True when the dimension grew."""
        r = self.reduce(vec)
        if not r:
            return False
        p = min(r)
        field = self.field
        inv, mul = field.inv(r[p]), field.mul
        row = {col: mul(inv, val) for col, val in r.items()}
        for other in self._rows.values():
            c = other.get(p)
            if c is not None:
                subtract_multiple(field, other, c, row)
        self._rows[p] = row
        return True

    def pivots(self) -> List[int]:
        return sorted(self._rows)

    def vectors(self) -> List[Vec]:
        """Basis rows in pivot order (copies)."""
        return [dict(self._rows[p]) for p in sorted(self._rows)]

    def dense(self) -> List[List[object]]:
        zero = self.field.zero
        out = []
        for p in sorted(self._rows):
            row = self._rows[p]
            out.append([row.get(c, zero) for c in range(self.width)])
        return out


def kernel_basis(field, images: List[Vec], source_dim: int) -> EchelonBasis:
    """Kernel of the map sending source basis vector i to images[i].

    Source column i of the augmented row [image_i | e_i] sits at shift + i,
    after every image column, so a row whose pivot is a source column has a
    zero image part.
    """
    shift = 1 + max((max(img) for img in images if img), default=-1)
    augmented = EchelonBasis(field, shift + source_dim)
    for i in range(source_dim):
        row = {c: v for c, v in images[i].items() if v}
        row[shift + i] = field.one
        augmented.insert(row)
    ker = EchelonBasis(field, source_dim)
    for p, row in augmented._rows.items():
        if p >= shift:
            ker._rows[p - shift] = {c - shift: v for c, v in row.items()}
    return ker
