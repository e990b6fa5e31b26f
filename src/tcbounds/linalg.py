"""Exact sparse row reduction over a field, on integer rows.

Vectors are dicts {column: nonzero value}.  An `EchelonBasis` keeps a row
echelon basis of a subspace of F^width: each row has a pivot column, its
leftmost nonzero one, and no two rows share a pivot.  A row is stored once,
as `insert` left it, and never rewritten: it is zero left of its pivot only.
Rows are dicts of Python ints, kept by the field's characteristic:

* Z_p: residues in range(1, p), not normalized.  Clearing column c of r by
  a row is r -= r[c] / row[c] * row, mod p, the inverse of row[c] computed
  the first time the row clears a column and kept per pivot.
* Q: primitive integer rows (content, the gcd of the entries, 1) with a
  positive pivot.  Clearing column c of r by a row is r <- a*r - b*row,
  with a/b = row[c]/r[c] in lowest terms, then r is divided by its content:
  no fraction is formed, and coefficients stay as small as the rows allow.

That is the one row operation, `eliminate`.  `reduce` clears the pivot
columns of a vector in increasing order, from a heap of the pivot columns
present: the row of pivot c is zero left of c, so clearing c changes only
columns right of it, and each pivot column its fill-in brings in is pushed
onto the heap.  The residual, zero at every pivot column, is the vector
minus the one element of the span that agrees with it there: the one an
RREF would leave, returned over Q as a nonzero integer multiple, and empty
exactly when the vector lies in the span.  `insert` is a rank test: it
clears only while the vector's leading column is a pivot, and stores the
vector at its first free one; `insert(reduce(vec))` stores the residual.
Both take plain ints or field values: over Q denominators are cleared, over
Z_p entries are taken mod p.

`vectors()` and `dense()` return the canonical RREF with pivot 1, built on
each call: the stored row of pivot c, reduced by the rows of the pivots
right of c and divided by its pivot entry.  `integer_rows()` returns the
stored rows themselves, for callers that only need the span.

`kernel_basis` is no separate eliminator: it takes the echelon of the
augmented rows [image_i | e_i] with the image columns first, and the rows
whose pivot falls in the source block are a basis of the kernel.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from math import gcd, lcm
from typing import Dict, List

Vec = Dict[int, object]


def eliminate(target: Dict[int, int], row: Dict[int, int], pivot: int, p: int,
              inverses: Dict[int, int], pivots, queue: List[int]) -> None:
    """Clear target[pivot] (nonzero) with the stored row of that pivot, in place.

    p is the characteristic: a prime for Z_p, where 1 / row[pivot] is kept in
    `inverses` on first use, or 0 for Q, where target is rescaled and left
    primitive.  Entries that cancel are dropped, and each column of `pivots`
    that the row brings into target is pushed onto the heap `queue`.
    """
    get = target.get
    b = target[pivot]
    if p:
        inv = inverses.get(pivot)
        if inv is None:
            inv = inverses[pivot] = pow(row[pivot], -1, p)
        b = -b * inv % p  # target += b * row
        for c, v in row.items():
            old = get(c)
            if old is None:
                target[c] = b * v % p  # nonzero: b and v are units mod p
                if c in pivots:
                    heappush(queue, c)
                continue
            nv = (old + b * v) % p
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
        old = get(c)
        if old is None:
            target[c] = -b * v
            if c in pivots:
                heappush(queue, c)
            continue
        nv = old - b * v
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
    """A row echelon basis of a subspace of F^width, grown one vector at a time.

    `_rows` maps each pivot column to its stored integer row (module
    docstring); `insert` adds a row and never rewrites one.
    """

    def __init__(self, field, width: int):
        self.field = field
        self.width = width
        self._p = field.characteristic
        self._rows: Dict[int, Dict[int, int]] = {}  # pivot column -> integer row
        self._inverses: Dict[int, int] = {}  # pivot column -> 1 / row[pivot] mod p

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
        if all(type(v) is int for v in vec.values()):
            return {c: v for c, v in vec.items() if v}
        den = lcm(*(v.denominator for v in vec.values()))
        if den == 1:
            return {c: int(v) for c, v in vec.items() if v}
        return {c: v.numerator * (den // v.denominator) for c, v in vec.items() if v}

    def reduce(self, vec: Vec) -> Dict[int, int]:
        """Residual of vec after clearing every pivot column (vec untouched).

        Fill-in included (module docstring); over Q a nonzero integer multiple.
        """
        r = self._integer_row(vec)
        rows, p, inverses = self._rows, self._p, self._inverses
        queue = [c for c in r if c in rows]
        heapify(queue)
        while queue:
            piv = heappop(queue)
            if piv in r:  # a queued column may have cancelled since
                eliminate(r, rows[piv], piv, p, inverses, rows, queue)
        return r

    def contains(self, vec: Vec) -> bool:
        return not self.reduce(vec)

    def insert(self, vec: Vec) -> bool:
        """Add a vector to the span; returns True when the dimension grew.

        A rank test: the vector's leading column is cleared while it is a
        pivot, and the vector is stored at the first free one, over Q made
        primitive with a positive pivot.  No stored row changes.
        """
        r = self._integer_row(vec)
        rows, p, inverses = self._rows, self._p, self._inverses
        while r:
            piv = min(r)
            row = rows.get(piv)
            if row is None:
                break
            eliminate(r, row, piv, p, inverses, (), None)  # no heap: min finds the lead
        else:
            return False
        if not p:
            g = gcd(*r.values())
            if r[piv] < 0:
                g = -g
            if g != 1:
                r = {c: v // g for c, v in r.items()}
        rows[piv] = r
        return True

    def pivots(self) -> List[int]:
        return sorted(self._rows)

    def integer_rows(self) -> List[Dict[int, int]]:
        """The stored integer rows in pivot order (not copies; read only).

        Echelon rows, not the RREF: they span the space of `vectors()`.
        """
        return [self._rows[piv] for piv in sorted(self._rows)]

    def vectors(self) -> List[Vec]:
        """The canonical RREF rows in pivot order, as field values with pivot 1.

        Built on each call: the stored row of each pivot, copied and reduced
        by the rows of the pivots right of it, leaves the RREF row up to a
        nonzero factor, since it is zero at those pivots and left of its own.
        """
        field = self.field
        right = EchelonBasis(field, self.width)
        out = []
        for piv in sorted(self._rows, reverse=True):
            row = right.reduce(self._rows[piv])
            right._rows[piv] = self._rows[piv]
            inv = field.inv(field.coerce(row[piv]))
            out.append({c: field.mul(inv, v) for c, v in row.items()})
        out.reverse()
        return out

    def dense(self) -> List[List[object]]:
        zero = self.field.zero
        return [[row.get(c, zero) for c in range(self.width)] for row in self.vectors()]


def kernel_basis(field, images: List[Vec], source_dim: int) -> EchelonBasis:
    """Kernel of the map sending source basis vector i to images[i] (ints or field values).

    Source column i of the augmented row [image_i | e_i] sits at shift + i,
    after every image column, so a row whose pivot is a source column has a
    zero image part, and the other rows have image parts with distinct
    leading columns, which are independent: the rows of the first kind are a
    basis of the kernel, as echelon rows; `vectors()` gives its RREF.
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
