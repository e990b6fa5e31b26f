"""Exact sparse row reduction over a field, on integer rows.

Vectors are dicts {column: nonzero value}.  An `EchelonBasis` keeps a row
echelon basis of a subspace of F^width: each row has a pivot column, its
leftmost nonzero one, and no two rows share a pivot.  A row is stored once,
as `insert` reduced it, and never rewritten: it is zero at every pivot column
that existed when it was inserted, and may be nonzero at later ones.

Every row is stored as a dict of Python ints, and the field's characteristic
chooses how rows are normalized:

* Z_p: residues in range(p) with pivot 1, so clearing column c of r by a row
  is r -= r[c] * row, mod p.
* Q: primitive integer rows (the gcd of the entries, their content, is 1)
  with a positive pivot.  Clearing column c of r by a row is
  r <- a*r - b*row, with a/b = row[c]/r[c] in lowest terms, after which r is
  divided by its content.  No fraction is formed, and coefficients stay as
  small as the rows themselves allow.

That is the one row operation, `eliminate`.  `reduce` clears the pivot
columns of a vector in increasing order, from a heap of the pivot columns
present: the row of pivot c is zero left of c, so clearing c changes only
columns right of it, and each pivot column that its fill-in brings in is
pushed onto the heap.  The residual, zero at every pivot column, is the
vector minus the one element of the span that agrees with it there, so it
is the one an RREF would leave.  `insert` and `reduce` accept plain ints or
field values: over Q denominators are cleared, over Z_p entries are taken
mod p, so integer vectors enter without conversion.  `reduce` returns the
residual over Z_p and, over Q, a nonzero integer multiple of it; either way
it is empty exactly when the vector lies in the span.

`vectors()` and `dense()` return the canonical RREF, as field values with
pivot 1 (over Q each entry is Fraction(v, pivot)), built on each call from
copies: the stored row of pivot c, reduced by the rows of the pivots right
of c.  `integer_rows()` returns the stored rows themselves, for callers that
only need the span.

`kernel_basis` is no separate eliminator: it takes the echelon of the
augmented rows [image_i | e_i] with the image columns first, and the rows
whose pivot falls in the source block are a basis of the kernel.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm
from typing import Dict, List

Vec = Dict[int, object]


def eliminate(target: Dict[int, int], row: Dict[int, int], pivot: int, p: int,
              pivots: Dict[int, object], queue: List[int]) -> None:
    """Clear target[pivot] (nonzero) with the stored row of that pivot, in place.

    p is the characteristic: a prime for Z_p, where row[pivot] == 1, or 0 for
    Q, where target is rescaled and left primitive.  Entries that cancel are
    dropped, and each column of `pivots` that the row brings into target is
    pushed onto the heap `queue`.
    """
    get = target.get
    b = target[pivot]
    if p:
        for c, v in row.items():
            old = get(c)
            if old is None:
                target[c] = -b * v % p  # nonzero: b and v are units mod p
                if c in pivots:
                    heappush(queue, c)
                continue
            nv = (old - b * v) % p
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
        """Residual of vec after clearing every pivot column (vec untouched).

        The columns are cleared in increasing order from a heap, fill-in
        included (module docstring).  Over Q the residual is returned as a
        nonzero integer multiple.
        """
        r = self._integer_row(vec)
        rows, p = self._rows, self._p
        queue = [c for c in r if c in rows]
        heapify(queue)
        while queue:
            piv = heappop(queue)
            if piv in r:  # a queued column may have cancelled since
                eliminate(r, rows[piv], piv, p, rows, queue)
        return r

    def contains(self, vec: Vec) -> bool:
        return not self.reduce(vec)

    def insert(self, vec: Vec) -> bool:
        """Add a vector to the span; returns True when the dimension grew.

        The residual of `reduce` is stored as the row of its leftmost column,
        normalized: pivot 1 mod p, or primitive with a positive pivot over Q.
        No stored row changes.
        """
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
        self._rows[piv] = row
        return True

    def pivots(self) -> List[int]:
        return sorted(self._rows)

    def integer_rows(self) -> List[Dict[int, int]]:
        """The stored integer rows in pivot order (not copies; read only).

        They are echelon rows, not the RREF: row i leads at pivot i and may
        be nonzero at later pivots.  They span the space of `vectors()`.
        """
        return [self._rows[piv] for piv in sorted(self._rows)]

    def vectors(self) -> List[Vec]:
        """The canonical RREF rows in pivot order, as field values with pivot 1.

        Built on each call: the stored row of each pivot, copied and reduced
        by the rows of the pivots right of it, leaves the RREF row up to a
        nonzero factor, since it is zero at those pivots.
        """
        right = EchelonBasis(self.field, self.width)
        out = []
        for piv in sorted(self._rows, reverse=True):
            row = right.reduce(self._rows[piv])
            right._rows[piv] = self._rows[piv]
            if not self._p:
                lead = row[piv]
                row = {c: Fraction(v, lead) for c, v in row.items()}
            out.append(row)
        out.reverse()
        return out

    def dense(self) -> List[List[object]]:
        zero = self.field.zero
        return [[row.get(c, zero) for c in range(self.width)] for row in self.vectors()]


def kernel_basis(field, images: List[Vec], source_dim: int) -> EchelonBasis:
    """Kernel of the map sending source basis vector i to images[i].

    Source column i of the augmented row [image_i | e_i] sits at shift + i,
    after every image column, so a row whose pivot is a source column has a
    zero image part, and the other rows have image parts with distinct
    leading columns, which are independent: the rows of the first kind are a
    basis of the kernel.  They are echelon rows, not yet the kernel's RREF;
    the returned basis gives that through `vectors()`.  Images may hold plain
    ints or field values.
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
