"""Exact sparse row reduction over a field, on integer rows.

Vectors are dicts {column: nonzero value}.  An `EchelonBasis` keeps a reduced
row echelon basis of a subspace of F^width: each row has a pivot column, the
leftmost nonzero one, and pivot columns are eliminated from all other rows.
Because of that, reducing a vector touches each pivot at most once.

Every row is stored as a dict of Python ints, and the field's characteristic
chooses how rows are normalized:

* Z_p: residues in range(p) with pivot 1, so clearing column c of r by a row
  is r -= r[c] * row, mod p.
* Q: primitive integer rows (the gcd of the entries, their content, is 1)
  with a positive pivot.  Clearing column c of r by a row is
  r <- a*r - b*row, with a/b = row[c]/r[c] in lowest terms, after which r is
  divided by its content.  No fraction is formed, and coefficients stay as
  small as the rows themselves allow.

That is the one row operation, `eliminate`.  `insert` and `reduce` accept
plain ints or field values: over Q denominators are cleared, over Z_p entries
are taken mod p, so integer vectors enter without conversion.  `reduce`
returns the residual over Z_p and, over Q, a nonzero integer multiple of it;
either way it is empty exactly when the vector lies in the span.
`vectors()` and `dense()` return field values with pivot 1 (over Q each entry
is Fraction(v, pivot)), which is the canonical RREF; `integer_rows()` returns
the stored rows themselves, for callers that only need the span.

`kernel_basis` is no separate eliminator: it takes the RREF of the augmented
rows [image_i | e_i] with the image columns first, and the rows whose pivot
falls in the source block are the kernel, already in canonical RREF.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Dict, List

Vec = Dict[int, object]


def eliminate(target: Dict[int, int], row: Dict[int, int], pivot: int, p: int) -> None:
    """Clear target[pivot] (nonzero) with the stored row of that pivot, in place.

    p is the characteristic: a prime for Z_p, where row[pivot] == 1, or 0 for
    Q, where target is rescaled and left primitive.  Entries that cancel are
    dropped.
    """
    get = target.get
    b = target[pivot]
    if p:
        for c, v in row.items():
            nv = (get(c, 0) - b * v) % p
            if nv:
                target[c] = nv
            else:
                del target[c]
        return
    a = row[pivot]
    g = gcd(a, b)
    if g != 1:
        a //= g
        b //= g
    if a != 1:
        for c in target:
            target[c] *= a
    for c, v in row.items():
        nv = get(c, 0) - b * v
        if nv:
            target[c] = nv
        else:
            del target[c]
    if target:
        g = gcd(*target.values())
        if g != 1:
            for c in target:
                target[c] //= g


class EchelonBasis:
    def __init__(self, field, width: int):
        self.field = field
        self.width = width
        self._p = field.characteristic
        self._rows: Dict[int, Dict[int, int]] = {}  # pivot column -> integer row

    @property
    def dim(self) -> int:
        return len(self._rows)

    def is_full(self) -> bool:
        return len(self._rows) == self.width

    def _integer_row(self, vec: Vec) -> Dict[int, int]:
        """A new integer row for vec: taken mod p, or with denominators cleared."""
        p = self._p
        if p:
            coerce = self.field.coerce
            row = {}
            for c, v in vec.items():
                v = v % p if type(v) is int else coerce(v)
                if v:
                    row[c] = v
            return row
        den = lcm(*(v.denominator for v in vec.values()))
        if den == 1:
            return {c: int(v) for c, v in vec.items() if v}
        return {c: v.numerator * (den // v.denominator) for c, v in vec.items() if v}

    def reduce(self, vec: Vec) -> Dict[int, int]:
        """Residual of vec after eliminating all pivot columns (vec untouched).

        Over Q the residual is returned as a nonzero integer multiple.
        """
        r = self._integer_row(vec)
        rows, p = self._rows, self._p
        for piv in sorted(c for c in r if c in rows):
            eliminate(r, rows[piv], piv, p)
        return r

    def contains(self, vec: Vec) -> bool:
        return not self.reduce(vec)

    def insert(self, vec: Vec) -> bool:
        """Add a vector to the span; returns True when the dimension grew."""
        r = self.reduce(vec)
        if not r:
            return False
        piv = min(r)
        p = self._p
        # a new dict: r may keep the table size of its fill-in during reduction
        if p:
            inv = pow(r[piv], -1, p)
            row = {c: v * inv % p for c, v in r.items()}
        else:
            g = gcd(*r.values())
            if r[piv] < 0:
                g = -g
            row = {c: v // g for c, v in r.items()}
        for other in self._rows.values():
            if piv in other:
                eliminate(other, row, piv, p)
        self._rows[piv] = row
        return True

    def pivots(self) -> List[int]:
        return sorted(self._rows)

    def integer_rows(self) -> List[Dict[int, int]]:
        """The stored integer rows in pivot order (not copies; read only).

        Over Z_p they are the `vectors()` rows; over Q each is a nonzero
        integer multiple of its `vectors()` row, so they span the same space.
        """
        return [self._rows[piv] for piv in sorted(self._rows)]

    def _field_row(self, piv: int) -> Vec:
        row = self._rows[piv]
        if self._p:
            return dict(row)
        lead = row[piv]
        return {c: Fraction(v, lead) for c, v in row.items()}

    def vectors(self) -> List[Vec]:
        """Basis rows in pivot order, as field values with pivot 1 (copies)."""
        return [self._field_row(piv) for piv in sorted(self._rows)]

    def dense(self) -> List[List[object]]:
        zero = self.field.zero
        return [[row.get(c, zero) for c in range(self.width)] for row in self.vectors()]


def kernel_basis(field, images: List[Vec], source_dim: int) -> EchelonBasis:
    """Kernel of the map sending source basis vector i to images[i].

    Source column i of the augmented row [image_i | e_i] sits at shift + i,
    after every image column, so a row whose pivot is a source column has a
    zero image part.  Images may hold plain ints or field values.
    """
    shift = 1 + max((max(img) for img in images if img), default=-1)
    augmented = EchelonBasis(field, shift + source_dim)
    for i in range(source_dim):
        row = dict(images[i])
        row[shift + i] = 1
        augmented.insert(row)
    ker = EchelonBasis(field, source_dim)
    for piv, row in augmented._rows.items():
        if piv >= shift:
            ker._rows[piv - shift] = {c - shift: v for c, v in row.items()}
    return ker
