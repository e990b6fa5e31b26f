"""The cohomology ring of the configuration space of n labelled points in R^m.

The ring is generated by classes e_ij (one per pair 1 <= i < j <= n) in
degree d = m-1, subject to the Arnold relations

    e_ij^2 = 0,        e_ij * e_ik = (e_ij - e_ik) * e_jk     (i < j < k),

with generators commuting for d even and anticommuting for d odd.  A monomial
e_{i1 j1} ... e_{ik jk} is *admissible* when its upper indices are strictly
increasing (j1 < ... < jk, each il < jl); admissible monomials form a Z-basis,
and the number of them with k factors is the t^k coefficient of
prod_{i=1}^{n-1} (1 + i*t), so the total rank is n!.

Every product of generators is brought to this basis by a terminating rewrite
procedure (`straighten_word`); the tests check its confluence against the
same local rules applied in an arbitrary order.

`straighten_word` is also the definition of the product of basis words:
u * v is the normal form of the word u + v, which `Presentation.product`
memoizes without listing the n! basis words.  `Presentation.witness_terms`
checks the facts behind the paper's witnesses on a few normal forms.  The
ring has one coordinate system, the indices of `full_basis()`: the operators
R_g of `right_operators`, each row filled on its first read from the Arnold
relation (`right_operator_row`), and the product rows of `row`, their fold.
Structure-constant documents store those rows as file text with a checksum.
A document is an export and an independent check, never a source: a load
installs nothing and checks it against the definition itself
(`load_structure_document`), so neither the recursion nor the fold is ever
its own oracle.

Elements are sparse linear combinations over a field.  `SparseElement` holds
the linear structure that ring and tensor elements share: sums, scaling,
equality of the same kind only, weights, and `combine`, the one accumulation
of integer expansions.  `AlgebraElement` adds generators, words and the ring
product; `tensor.TensorElement` adds the Koszul product.

>>> p = Presentation(3, 2)
>>> sorted(p.generators())
[(1, 2), (1, 3), (2, 3)]
>>> straighten_word([(1, 3), (2, 3)], p.parity) == {((1, 2), (2, 3)): 1, ((1, 2), (1, 3)): -1}
True
"""

from __future__ import annotations

import math
from itertools import accumulate, combinations, product as iproduct
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

Edge = Tuple[int, int]
Word = Tuple[Edge, ...]

STRUCTURE_SCHEMA_VERSION = 1


class CacheError(ValueError):
    """A structure-constant document failed validation."""


def _check_edge(edge) -> Edge:
    i, j = edge
    if i >= j:
        raise ValueError(f"malformed edge ({i},{j}): need i < j")
    if i < 1:
        raise ValueError(f"malformed edge ({i},{j}): indices start at 1")
    return (i, j)


def straighten_word(word: Iterable[Edge], parity: int) -> Dict[Word, int]:
    """Normal form of a product of generators, as {admissible word: int coeff}.

    Rules applied: a repeated factor kills the word; factors are sorted by
    (upper, lower) index, each adjacent swap contributing (-1)^parity; an
    adjacent pair e_ac * e_bc sharing its upper index (a < b < c) is replaced
    by e_ab * e_bc - e_ab * e_ac.  The last rule strictly decreases the
    multiset of upper indices, so the procedure terminates.
    """
    start = tuple(_check_edge(e) for e in word)
    out: Dict[Word, int] = {}
    stack: List[Tuple[int, Word]] = [(1, start)]
    while stack:
        coeff, w = stack.pop()
        arr = list(w)
        # insertion sort by (upper, lower), counting adjacent transpositions
        inversions = 0
        for idx in range(1, len(arr)):
            item = arr[idx]
            key = (item[1], item[0])
            t = idx - 1
            while t >= 0 and (arr[t][1], arr[t][0]) > key:
                arr[t + 1] = arr[t]
                t -= 1
                inversions += 1
            arr[t + 1] = item
        if parity and inversions & 1:
            coeff = -coeff
        shared = -1
        dead = False
        for t in range(len(arr) - 1):
            if arr[t] == arr[t + 1]:
                dead = True
                break
            if arr[t][1] == arr[t + 1][1]:
                shared = t
                break
        if dead:
            continue
        if shared >= 0:
            a, c = arr[shared]
            b = arr[shared + 1][0]
            head, tail = arr[:shared], arr[shared + 2:]
            stack.append((coeff, tuple(head + [(a, b), (b, c)] + tail)))
            stack.append((-coeff, tuple(head + [(a, b), (a, c)] + tail)))
            continue
        key2 = tuple(arr)
        total = out.get(key2, 0) + coeff
        if total:
            out[key2] = total
        else:
            del out[key2]
    return out


def _two_letter_patterns(n: int) -> List[Tuple[Edge, Edge]]:
    """The two-letter words gh whose indices are exactly 1..k, for some k <= n.

    Each two-letter word is an order-preserving relabelling of one of them
    (`Presentation.decone_splits`): the repeated letter e_12 e_12, the six
    ordered pairs of distinct letters on 1..3 and the six of disjoint letters
    on 1..4.
    """
    gens = [(i, j) for j in range(2, min(n, 4) + 1) for i in range(1, j)]
    return [(g, h) for g in gens for h in gens if max(g[1], h[1]) == len({*g, *h})]


def check_configuration(n: int, m: int) -> None:
    """Raise ValueError unless F(R^m, n) is a configuration space the ring models."""
    if n < 1:
        raise ValueError(f"point count n={n} must be >= 1")
    if m < 2:
        raise ValueError(
            f"ambient dimension m={m} must be >= 2 (points on a line cannot be permuted)"
        )


# (parity, min(n, 4)) -> `Presentation._pattern_forms`: by the relabelling lemma
# of `Presentation.decone_splits` the forms and both facts read from them
# depend on nothing else, so a process straightens the patterns once per key
_RING_FACTS: Dict[Tuple[int, int], Tuple[dict, bool, bool]] = {}


class Presentation:
    """Presentation of H*(F(R^m, n)): n points in R^m, generators in degree m-1.

    Instances memoize bases, the operators R_g (integer structure constants
    in full-basis index coordinates) and the products in words that `product`
    returns.  All methods are pure apart from filling these caches.
    """

    def __init__(self, n: int, m: int):
        check_configuration(n, m)
        self.n = n
        self.m = m
        self.degree = m - 1        # cohomological degree of each generator
        self.parity = (m - 1) % 2  # 0: generators commute, 1: anticommute
        self.top_weight = n - 1    # largest factor count of a nonzero monomial
        self._bases: Dict[int, Tuple[Word, ...]] = {}
        self._coords = None  # built once, by _coordinates
        self._products: Dict[Tuple[Word, Word], Dict[Word, int]] = {}  # by product, in words
        self._right_ops = None  # the R_g lists, made once by right_operators

    def __repr__(self):
        return f"Presentation(n={self.n}, m={self.m})"

    def same_ring(self, other: "Presentation") -> bool:
        return self.n == other.n and self.m == other.m

    def generators(self) -> List[Edge]:
        return [(i, j) for j in range(2, self.n + 1) for i in range(1, j)]

    def basis(self, k: int) -> Tuple[Word, ...]:
        """All admissible k-factor monomials, upper-index combinations in lex order."""
        if k < 0:
            raise ValueError("factor count must be >= 0")
        cached = self._bases.get(k)
        if cached is None:
            if k > self.top_weight:
                cached = ()
            else:
                words = []
                for uppers in combinations(range(2, self.n + 1), k):
                    for lowers in iproduct(*(range(1, j) for j in uppers)):
                        words.append(tuple(zip(lowers, uppers)))
                cached = tuple(words)
            self._bases[k] = cached
        return cached

    def full_basis(self) -> List[Word]:
        """All admissible monomials, weight by weight; total length is n!.

        The one list that fixes the basis order of the product rows and of
        structure documents, built once per ring and shared: do not mutate it.
        """
        return self._coordinates().mons

    def straighten(self, word: Sequence[Edge]) -> Dict[Word, int]:
        for i, j in word:
            if j > self.n:
                raise ValueError(f"edge ({i},{j}) out of range for n={self.n}")
        return straighten_word(word, self.parity)

    def decone_splits(self) -> bool:
        """Whether d, d e_ij = 1, is a derivation of the ring: over Z for even m, mod 2 for odd m.

        The check: d NF(w) = d w for every two-letter word w, NF the normal
        form of `straighten`, d(ab) = b + (-1)^parity a as for the free
        derivation d(uv) = du v + (-1)^{parity |u|} u dv.  It reads only the
        normal forms of `_two_letter_patterns(n)` (`_pattern_forms`): 13 for
        n >= 4, 7 at n = 3 and 1 at n = 2.  Run once per parity and min(n, 4),
        which is all it depends on (the lemma below).

        Proof (a).  d is defined on the ring exactly when it maps the relation
        ideal I into itself.  The rules of `straighten_word` rewrite adjacent
        pairs, so the w - NF(w) generate I, and d(w - NF(w)) has weight 1,
        where I is 0: the check is that condition over all C(n, 2)^2 two-letter
        words.  It holds over Z for odd generators (even m); for even ones
        d(g g) = 2g, so at most mod 2.

        Lemma (the patterns suffice).  `straighten_word` compares indices only
        with < and ==, and builds new letters only from indices already in
        the word: the sort by (upper, lower), the repeated-letter test, and
        e_ac e_bc -> e_ab e_bc - e_ab e_ac.  So an order-preserving injection
        phi of indices commutes with every rule, and NF(phi w) = phi NF(w).
        d(ab) = b + (-1)^parity a commutes with phi too, so
        d NF(phi w) - d(phi w) = phi(d NF(w) - d w), which vanishes exactly
        when d NF(w) - d w does, phi being injective on generators.  A
        two-letter word holds at most four indices, and the order-preserving
        map of its indices onto 1..k carries it to one of the patterns; at n,
        only the patterns with at most n indices occur.
        """
        return self._pattern_forms()[2]

    def _pattern_forms(self) -> Tuple[Dict[Tuple[Edge, Edge], Dict[Word, int]], bool, bool]:
        """(NF of each word of `_two_letter_patterns(n)`, whether facts (1)-(3) of
        `witness_terms` hold, whether the decone check holds): the key's `_RING_FACTS`."""
        key = (self.parity, min(self.n, 4))
        if key not in _RING_FACTS:
            forms = {w: self.straighten(w) for w in _two_letter_patterns(self.n)}
            sign, modulus = (-1, 0) if self.parity else (1, 2)  # sign: also the Koszul sign

            def closes(g, h, form) -> bool:
                # d NF(gh) - d(gh), with d(ab) = b + sign a
                diff = {h: -1}
                diff[g] = diff.get(g, 0) - sign
                for (a, b), c in form.items():
                    diff[b] = diff.get(b, 0) + c
                    diff[a] = diff.get(a, 0) + sign * c
                return not any(c % modulus if modulus else c for c in diff.values())

            facts = [not forms.get(((1, 2), (1, 2))),
                     all((1, 2) in w for w in forms.get(((1, 3), (2, 3)), ()))]
            facts += [form == ({(g, h): 1} if g[1] < h[1] else {(h, g): sign})
                      for (g, h), form in forms.items() if g[1] != h[1]]
            _RING_FACTS[key] = (forms, all(facts),
                                all(closes(g, h, form) for (g, h), form in forms.items()))
        return _RING_FACTS[key]

    def witness_terms(self) -> Optional[int]:
        """The integer coefficient b of the paper's shorter witness, or None if a fact fails.

        With E = e_12 e_13 ... e_1n and F = e_23 ... e_2n, a is the coefficient
        of E (x) E in the product of bar(e_1j)^2, j = 2..n, and b that of
        E (x) F in bar(e_12) times bar(e_1j) bar(e_2j), j = 3..n, in that order,
        over Z: a = (-2)^(n-1) for odd m and 0 for even m, b =
        (-1)^(n + parity (n-2)(n-3)/2), and a = b = 1 at n = 1 (empty words).
        So a is a unit in a field exactly when n = 1, or m is odd and the
        characteristic is not 2; it is never formed.  b is a unit in every
        field.  The facts: (1) two letters with different upper indices swap
        with the Koszul sign only; (2) every term of NF(e_1j e_2j) holds e_12;
        (3) NF(e_1j e_1j) = 0; (4) E and F are admissible, their upper indices
        strictly increasing, so NF(E) = E and NF(F) = F by the basis theorem.
        (1)-(3) are about two-letter words, so by the relabelling lemma of
        `decone_splits` the patterns suffice (`_pattern_forms`), and are
        checked on their normal forms; (4) holds by construction.

        Proof.  H is associative and (u (x) v)(u' (x) v') = (-1)^{|v||u'|}
        uu' (x) vv', so a product of the terms g (x) 1 and -(1 (x) g) of the
        bar(g) is +-NF(left word) (x) NF(right word), the sign set by degrees.
        a: bar(g)^2 = g^2 (x) 1 - (1 + (-1)^{|g||g|}) g (x) g + 1 (x) g^2 is
        -2 g (x) g for odd m and 0 for even m, by (3); the -2 e_1j (x) e_1j
        multiply with no sign to (-2)^(n-1) E (x) E, by (4).  b: a term that
        reaches E (x) F has n - 1 letters on the left.  With e_12 on the right,
        every term of the right normal form holds it (the one letter of upper
        index 2: no rule removes it from a surviving term), so none is F.  With
        e_12 on the left and both e_1j and e_2j, adjacent, the left vanishes
        by (1)-(3).  Otherwise its letters have distinct upper indices, so
        by (1) its normal form is +- the sorted word, admissible, which is E
        only if every letter is some e_1j, and then the right word is F.  That
        term has each e_2j on the right, a factor -1, and each e_1j passing the
        j - 3 letters on the right, (-1)^(parity (j-3)); with (4) it is b.
        """
        n = self.n
        if not self._pattern_forms()[1]:
            return None
        return (-1) ** ((n + self.parity * (n - 2) * (n - 3) // 2) % 2) if n > 1 else 1

    def _coordinates(self) -> "_Coordinates":
        """Index data of the full basis, built once (see `_Coordinates`)."""
        if self._coords is None:
            self._coords = _Coordinates(self)
        return self._coords

    def width(self, iu: int) -> int:
        """How many basis words v the word at iu multiplies within the top weight.

        The full basis is weight-ordered, so these v are a prefix of it: the
        words of weight at most top_weight - len(u).
        """
        co = self._coordinates()
        return co.ends[self.top_weight - co.weights[iu]]

    def right_operators(self) -> List[List[Optional[List[Tuple[int, int]]]]]:
        """R_g for each generator g, in the index coordinates of `full_basis()`.

        ops[g][iu] lists (iw, k) with u * g = sum k * w, where u and w sit at
        iu and iw; read as a dict it is row(iu)[1 + g].  A top-weight u
        times g is zero, so the last rows, those of the top weight, are [];
        every other row is None until `right_operator_row` fills it on first
        read, with the rows of the word's prefix that it needs: a split span
        reads few of them.  The lists are made once per ring and filled in
        place, shared by every square over it and by the fold of `row`.
        """
        if self._right_ops is None:
            size = len(self._coordinates().mons)
            top = len(self.basis(self.top_weight))
            self._right_ops = [[None] * (size - top) + [[]] * top for _ in self.generators()]
        return self._right_ops

    def right_operator_row(self, g: int, iu: int) -> List[Tuple[int, int]]:
        """Row iu of R_g (see `right_operators`), filled on first read.

        The row is u * g for the word u at iu, built from rows of the prefix
        u' of u = u' h, where h = (a, c) is the last letter of u, and never
        rewritten.  With g = (b, d):

        - u = 1:          1 * g = g, the base case;
        - d > c:          u * g = u + g, an admissible word;
        - d < c:          u * g = (-1)^parity * sum k_w (w + h),
                          where sum k_w w = R_g(u');
        - g = h:          u * g = 0;
        - d = c, b != a:  u * g = s * sum k_w ((w + p) - (w + q)),
                          where sum k_w w = R_x(u'), x = e_{min(a,b) max(a,b)},
                          and (p, q, s) = ((b,c), (a,c), 1) for a < b,
                          ((a,c), (b,c), (-1)^parity) for a > b.

        Proof.  The ring is associative, so u * g = u' * (h * g).  For d < c,
        h * g = (-1)^parity g * h (one swap of two generators), so u * g =
        (-1)^parity (u' * g) * h.  For d = c the rule of `straighten_word`
        (after one swap when a > b) rewrites h * g as s * (x * p - x * q),
        so u * g = s * ((u' * x) * p - (u' * x) * q).  g * g = 0 settles
        g = h.  No word w + letter needs rewriting: u' and x (or g, when
        d < c) have all their upper indices below c, no rewrite raises an
        upper index, so every w has all its uppers below c and w + letter,
        whose last upper is c, is admissible.  Distinct w give distinct
        w + p, and w + p is never w' + q, the last letters differing, so the
        row needs no summing.  Coordinates are read through `_Coordinates`
        alone (`mons`, `index` and `parent`).  `straighten_word(u + (g,))`
        stays the definition, against which the tests check every row.
        """
        op = self.right_operators()[g]
        row = op[iu]
        if row is None:
            co = self._coordinates()
            mons, index = co.mons, co.index
            u = mons[iu]
            # the words of weight 1 follow the unit, in `generators()` order
            letter = mons[1 + g][0]
            b, d = letter
            a, c = u[-1] if u else (0, 0)  # the unit is below every generator
            sign = -1 if self.parity else 1
            if d > c:
                row = [(index[u + (letter,)], 1)]
            elif d < c:
                h = u[-1]
                row = [(index[mons[iw] + (h,)], sign * k)
                       for iw, k in self.right_operator_row(g, co.parent[iu])]
            elif b == a:
                row = []
            else:
                x = index[((min(a, b), max(a, b)),)] - 1
                p, q, s = ((b, c), (a, c), 1) if a < b else ((a, c), (b, c), sign)
                row = []
                for iw, k in self.right_operator_row(x, co.parent[iu]):
                    w = mons[iw]
                    row.append((index[w + (p,)], s * k))
                    row.append((index[w + (q,)], -s * k))
            op[iu] = row
        return row

    def row(self, iu: int) -> List[Dict[int, int]]:
        """Products of the basis word u at iu, in full-basis index coordinates.

        row(iu)[iv] is {ix: c} with u * v = sum c * x, for each of the
        `width(iu)` words v within the top weight; every longer product is
        zero by grading and has no slot.  By definition u * v is
        `straighten_word(u + v)`, but the row is the fold of the operators
        R_g of `right_operators`, one generator at a time: with v = v' g,

            u * v = (u * v') * g = sum_x c_x * (x * g),  where u * v' = sum_x c_x * x.

        This holds because the ring is associative and the prefix v' of an
        admissible word is admissible, of lower weight and so earlier in the
        row; `parent` and `last` of `_Coordinates` index v' and g, so no word
        is hashed.  The row is built on each call and not kept: the R_g rows
        it reads are.  `verify_structure_document` compares documents with
        the definition, not with this fold.
        """
        co = self._coordinates()
        ops, fill = self.right_operators(), self.right_operator_row
        parent, last = co.parent, co.last
        got = [{iu: 1}]
        for iv in range(1, self.width(iu)):
            g = last[iv]
            op = ops[g]
            out: Dict[int, int] = {}
            for ix, c in got[parent[iv]].items():
                terms = op[ix]
                if terms is None:
                    terms = fill(g, ix)
                for iy, k in terms:
                    total = out.get(iy, 0) + c * k
                    if total:
                        out[iy] = total
                    else:
                        del out[iy]
            got.append(out)
        return got

    def product(self, u: Word, v: Word) -> Dict[Word, int]:
        """Structure constants of the basis product u * v, in words (memoized).

        u and v must be admissible.  This is the definition,
        `straighten_word(u + v)`, so a product never lists the n! basis
        words that the rows are indexed by.  A product of more than
        `top_weight` factors is zero by grading and is neither computed nor
        memoized: admissible words have strictly increasing upper indices in
        2..n, and every rewrite keeps the factor count.  Nor is a product by
        the unit (), which is the other factor, an admissible word and so
        its own normal form.
        """
        if not u:
            return {v: 1}
        if not v:
            return {u: 1}
        if len(u) + len(v) > self.top_weight:
            return {}
        key = (u, v)
        got = self._products.get(key)
        if got is None:
            got = self._products[key] = straighten_word(u + v, self.parity)
        return got


class _Coordinates:
    """Index data of `Presentation.full_basis()`, the coordinates of the product rows.

    weights[i] is the factor count of mons[i], and ends[w] counts the words
    of weight at most w.  For every word v but the unit, parent[iv] indexes
    v[:-1] and last[iv] the generator v[-1] in `generators()` order.
    """

    __slots__ = ("mons", "index", "weights", "ends", "parent", "last")

    def __init__(self, pres: Presentation):
        mons: List[Word] = []
        self.ends = []
        for k in range(pres.top_weight + 1):
            mons.extend(pres.basis(k))
            self.ends.append(len(mons))
        index = {w: i for i, w in enumerate(mons)}
        self.mons, self.index = mons, index
        self.weights = [len(w) for w in mons]
        self.parent = [0] + [index[v[:-1]] for v in mons[1:]]
        # the words of weight 1 follow the unit, in `generators()` order
        self.last = [0] + [index[v[-1:]] - 1 for v in mons[1:]]


# ---------------------------------------------------------------------------
# elements
# ---------------------------------------------------------------------------

def monomial_str(word: Word) -> str:
    if not word:
        return "1"
    return "*".join(f"e_{i}_{j}" for i, j in word)


class SparseElement:
    """Finite linear combination of basis keys over a field, zeros never stored.

    The linear structure shared by ring and tensor elements lives here; a
    subclass sets the unit key `UNIT` and supplies `_factors` (the factor
    count of a key), `_key_str` and its own product loop `_product`.
    """

    __slots__ = ("pres", "field", "terms")
    UNIT: object = None

    def __init__(self, pres: Presentation, field, terms: Dict[object, object]):
        self.pres = pres
        self.field = field
        self.terms = {k: c for k, c in terms.items() if c}

    @classmethod
    def zero(cls, pres, field):
        return cls(pres, field, {})

    @classmethod
    def one(cls, pres, field):
        return cls(pres, field, {cls.UNIT: field.one})

    @classmethod
    def combine(cls, pres, field, parts):
        """The element sum of c * expansion over the (c, {key: coeff}) pairs in parts."""
        mul, add = field.mul, field.add
        out: Dict[object, object] = {}
        for c, expansion in parts:
            for key, k in expansion.items():
                contrib = mul(c, k)
                prev = out.get(key)
                nv = add(prev, contrib) if prev is not None else contrib
                if nv:
                    out[key] = nv
                else:
                    del out[key]
        return cls(pres, field, out)

    def is_zero(self) -> bool:
        return not self.terms

    @property
    def weight(self):
        """Common factor count of all terms, or None when mixed (0 for zero)."""
        counts = {self._factors(k) for k in self.terms}
        if not counts:
            return 0
        if len(counts) == 1:
            return counts.pop()
        return None

    @property
    def degree(self):
        """Homogeneous cohomological degree; None marks a mixed element."""
        w = self.weight
        return None if w is None else w * self.pres.degree

    def is_homogeneous(self) -> bool:
        return self.weight is not None

    def _compatible(self, other):
        if type(other) is not type(self):
            raise TypeError(f"cannot combine {type(self).__name__} with {type(other).__name__}")
        if not self.pres.same_ring(other.pres) or self.field != other.field:
            raise ValueError("elements live over different presentations or fields")

    def __add__(self, other):
        self._compatible(other)
        one = self.field.one
        return self.combine(self.pres, self.field, ((one, self.terms), (one, other.terms)))

    def __neg__(self):
        neg = self.field.neg
        return type(self)(self.pres, self.field, {k: neg(c) for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, scalar):
        c = self.field.coerce(scalar)
        if not c:
            return self.zero(self.pres, self.field)
        mul = self.field.mul
        return type(self)(self.pres, self.field, {k: mul(c, v) for k, v in self.terms.items()})

    def __rmul__(self, scalar):
        if isinstance(scalar, SparseElement):
            return NotImplemented
        return self.scale(scalar)

    def __mul__(self, other):
        if not isinstance(other, SparseElement):
            return self.scale(other)
        self._compatible(other)
        return self._product(other)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return (
            self.pres.same_ring(other.pres)
            and self.field == other.field
            and self.terms == other.terms
        )

    def __repr__(self):
        parts = []
        for k in sorted(self.terms, key=lambda k: (len(k), k)):
            c, mono = str(self.terms[k]), self._key_str(k)
            parts.append(f"{c}*{mono}" if mono != "1" else c)
        return " + ".join(parts).replace("+ -", "- ") or "0"


class AlgebraElement(SparseElement):
    """Finite linear combination of admissible monomials over a field.

    Term keys are always admissible words in normal form.
    """

    __slots__ = ()
    UNIT = ()
    _key_str = staticmethod(monomial_str)

    @staticmethod
    def _factors(word: Word) -> int:
        return len(word)

    @classmethod
    def generator(cls, pres, field, i: int, j: int):
        _check_edge((i, j))
        if j > pres.n:
            raise ValueError(f"generator e_{i}_{j} out of range for n={pres.n}")
        return cls(pres, field, {((i, j),): field.one})

    @classmethod
    def from_word(cls, pres, field, word: Sequence[Edge]):
        return cls.combine(pres, field, [(field.one, pres.straighten(word))])

    def _product(self, other):
        mul, prod = self.field.mul, self.pres.product
        return self.combine(self.pres, self.field, (
            (mul(cu, cv), prod(u, v))
            for u, cu in self.terms.items()
            for v, cv in other.terms.items()
        ))


# ---------------------------------------------------------------------------
# rank bookkeeping
# ---------------------------------------------------------------------------

def rank_polynomial(n: int) -> List[int]:
    """Coefficients of prod_{i=1}^{n-1} (1 + i*t)."""
    coeffs = [1]
    for i in range(1, n):
        coeffs = [c + i * (coeffs[k - 1] if k else 0)
                  for k, c in enumerate(coeffs)] + [i * coeffs[-1]]
    return coeffs


def poincare_table(n: int) -> List[int]:
    """Ranks per factor count, computed two ways and cross-checked.

    Route one expands prod (1 + i*t); route two counts admissible monomials.
    The total must come to n!.
    """
    pres = Presentation(n, 2)
    expanded = rank_polynomial(n)
    counted = [len(pres.basis(k)) for k in range(n)]
    if expanded != counted:
        raise AssertionError(
            f"rank mismatch for n={n}: polynomial {expanded} vs enumeration {counted}"
        )
    if sum(expanded) != math.factorial(n):
        raise AssertionError(f"total rank {sum(expanded)} != {n}!")
    return expanded


def stability_check(n: int, m_even: int) -> bool:
    """Whether the (n, m_even) ring has the (n, 2) structure constants.

    Both rings are built independently and their full product tables compared;
    the degree scaling i -> (m_even - 1) * i is implicit in comparing weight
    for weight.
    """
    if m_even % 2 != 0:
        raise ValueError(f"m={m_even} must be even")
    ref = Presentation(n, 2)
    other = Presentation(n, m_even)
    mons = ref.full_basis()
    if mons != other.full_basis():
        return False
    for u in mons:
        for v in mons:
            if ref.product(u, v) != other.product(u, v):
                return False
    return True


# ---------------------------------------------------------------------------
# structure-constant documents
# ---------------------------------------------------------------------------

# the keys a document's checksum covers
_CHECKED_KEYS = ("schema_version", "n", "m", "basis", "products")


def _canonical_json(value) -> str:
    import json  # only documents need it, as hashlib below
    # a document is built here or parsed from JSON, so it is never cyclic
    return json.dumps(value, sort_keys=True, separators=(",", ":"), check_circular=False)


def _text_checksum(head, tail) -> str:
    """sha256, in hex, of a document text without its checksum member: head, then tail."""
    import hashlib  # only documents need it; a report never loads it

    digest = hashlib.sha256(head)
    digest.update(tail)
    return digest.hexdigest()


def _document_checksum(payload: dict) -> str:
    return _text_checksum(_canonical_json(payload).encode(), b"")


def _document_text(pres: Presentation) -> Tuple[str, str]:
    """The file text of the structure document of `pres`, and its checksum.

    The text is the document: `structure_document` parses it and
    `write_structure_document` writes it.  Coefficients are serialized as
    decimal strings; `basis` lists monomials as edge lists in the canonical
    weight-by-weight order.  Only pairs within the top weight can be
    nonzero; `Presentation.row` gives exactly those, in the index
    coordinates of the document, so its nonzero entries are emitted as they
    are, each row read once and each entry written as its text
    `[i,j,[[k,"c"],...]]`, terms by increasing k, before the next row is
    read.  These are `_canonical_json`'s exact bytes: i, j and k are ints
    and each c is the decimal string of an int, so JSON writes their own
    characters, with no escape.

    The keys sort as basis, checksum, m, n, products, schema_version, the
    order the rest is written in, so the text the checksum covers,
    `_canonical_json` of the `_CHECKED_KEYS`, is the file text without its
    `"checksum":"...",` member and final newline: both are made from the
    same two pieces, the basis member and the rest.
    """
    mons = pres.full_basis()
    entries = []
    for i in range(len(mons)):
        for j, p in enumerate(pres.row(i)):
            if p:
                terms = ",".join([f'[{k},"{c}"]' for k, c in sorted(p.items())])
                entries.append(f"[{i},{j},[{terms}]]")
    head = '{"basis":' + _canonical_json(mons) + ","
    tail = (f'"m":{pres.m},"n":{pres.n},"products":[{",".join(entries)}],'
            f'"schema_version":{STRUCTURE_SCHEMA_VERSION}}}')
    checksum = _text_checksum(head.encode(), tail.encode())
    return f'{head}"checksum":"{checksum}",{tail}\n', checksum


_CHECKSUM_MEMBER = b',"checksum":"'  # as the writer spells it, after the basis


def _sealed_checksum(data: bytes) -> Optional[str]:
    """The checksum a file's bytes carry in their first checksum member, if they hash to it.

    The bytes before the member, through its comma, and after it, less one
    final newline, are hashed in place, as `_document_text` hashed them.
    """
    at = data.find(_CHECKSUM_MEMBER)
    if at < 0:
        return None
    start = at + len(_CHECKSUM_MEMBER)
    end = start + 64
    if data[end:end + 2] != b'",':
        return None
    view = memoryview(data)
    checksum = _text_checksum(view[:at + 1], view[end + 2:len(data) - data.endswith(b"\n")])
    return checksum if data[start:end] == checksum.encode() else None


def structure_document(pres: Presentation) -> dict:
    """The structure document of `pres`, parsed from its file text (see `_document_text`)."""
    import json
    return json.loads(_document_text(pres)[0])


def document_to_json(doc: dict) -> str:
    return _canonical_json(doc) + "\n"


def write_structure_document(pres: Presentation, path) -> str:
    """Write the structure document of `pres` to `path`; returns its checksum."""
    text, checksum = _document_text(pres)
    with open(path, "w") as fh:
        fh.write(text)
    return checksum


def _check_document(doc, pres: Presentation, samples, sealed: Optional[str]) -> int:
    """`verify_structure_document`, with `sealed`, the checksum the file's bytes hash to, if any.

    A checksum matches when it is `sealed` or else the checksum of the
    canonical re-encode.
    """
    if samples is not None and (type(samples) is not int or samples < 1):
        raise ValueError(f"samples must be None or an int >= 1, got {samples!r}")
    if not isinstance(doc, dict):
        raise CacheError(f"document is a JSON {type(doc).__name__}, not an object")
    if doc.get("schema_version") != STRUCTURE_SCHEMA_VERSION:
        raise CacheError(
            f"schema version {doc.get('schema_version')!r} unsupported "
            f"(expected {STRUCTURE_SCHEMA_VERSION})"
        )
    if (doc.get("n"), doc.get("m")) != (pres.n, pres.m):
        raise CacheError(
            f"document is for (n={doc.get('n')}, m={doc.get('m')}), "
            f"not (n={pres.n}, m={pres.m})"
        )
    missing = [k for k in _CHECKED_KEYS if k not in doc]
    if missing:
        raise CacheError(f"document lacks {', '.join(missing)}")
    checksum = doc.get("checksum")
    if ((sealed is None or checksum != sealed)
            and checksum != _document_checksum({k: doc[k] for k in _CHECKED_KEYS})):
        raise CacheError("checksum mismatch: document corrupted or stale")
    basis = doc["basis"]
    # n! >= 2^(n-1) words: count them before the ring lists its own, so that a
    # short document cannot make it list n!
    if not (type(basis) is list and pres.n <= len(basis).bit_length()
            and len(basis) == math.factorial(pres.n)):
        raise CacheError(f"basis is not a list of {pres.n}! words")
    try:
        mons = [tuple(tuple(e) for e in w) for w in basis]
    except TypeError:
        raise CacheError("basis is not a list of edge lists") from None
    if mons != pres.full_basis():
        raise CacheError("basis list does not match the presentation")
    mons = pres.full_basis()
    widths = [pres.width(i) for i in range(len(mons))]
    if samples is None:
        pairs = ((i, j) for i, width in enumerate(widths) for j in range(width))
        count = len(widths) ** 2
    else:
        import random

        # drawn from the checksum and the widths alone, so before the parse
        rng = random.Random(int(doc["checksum"][:16], 16))
        firsts = rng.choices(range(len(widths)), cum_weights=list(accumulate(widths)), k=samples)
        pairs = [(i, rng.randrange(widths[i])) for i in firsts]
        count = samples
    products = _parse_products(doc, pres, None if samples is None else pairs)
    for i, j in pairs:
        got = {mons[k]: c for k, c in products.get(i, {}).get(j, {}).items()}
        if got != straighten_word(mons[i] + mons[j], pres.parity):
            raise CacheError(f"stale product for {monomial_str(mons[i])} * {monomial_str(mons[j])}")
    return count


def _parse_products(doc: dict, pres: Presentation, pairs: Optional[Iterable[Tuple[int, int]]]
                    ) -> Dict[int, Dict[int, Dict[int, int]]]:
    """The terms {i: {j: {k: c}}} of the entries for `pairs` (i, j), of every entry when None.

    Every entry is checked, and any malformed one is a CacheError: indices
    must be ints in range(N) and the pair within the top weight, a pair may
    appear only once, an entry must have a term, every term must have the
    weight of its product, coefficients must be decimal strings of nonzero
    integers, and a term may appear only once.  A pair the document leaves
    out is a zero product, absent from the result.
    """
    co = pres._coordinates()
    n_mons = len(co.mons)
    weights, ends = co.weights, co.ends
    starts = [0] + ends[:-1]  # a term of weight w has its index in starts[w]..ends[w]-1
    widths = [pres.width(i) for i in range(n_mons)]
    offsets = [0, *accumulate(widths)]  # the byte of pair (i, j) is offsets[i] + j
    seen = bytearray(offsets[-1])
    if pairs is None:
        keep = b"\1" * offsets[-1]
    else:
        keep = bytearray(offsets[-1])
        for i, j in pairs:
            keep[offsets[i] + j] = 1
    kept: Dict[int, Dict[int, Dict[int, int]]] = {}  # by row: no tuple per pair
    checked: Dict[str, int] = {}  # the coefficient strings that passed, by value

    def malformed(what):
        return CacheError(f"malformed product entry ({what})")

    def pair(i, j):
        return f"{monomial_str(co.mons[i])} * {monomial_str(co.mons[j])}"

    try:
        for i, j, terms in doc["products"]:
            if not (type(i) is int and 0 <= i < n_mons and type(j) is int and 0 <= j < n_mons):
                raise malformed(f"index pair {i!r}, {j!r} not in range({n_mons})")
            # a product is homogeneous of weight len(u) + len(v), and zero above the top
            if j >= widths[i]:
                raise CacheError(f"entry for {pair(i, j)} is above the top weight {pres.top_weight}")
            slot = offsets[i] + j
            if seen[slot]:
                raise CacheError(f"second entry for {pair(i, j)}")
            seen[slot] = 1
            if not terms:
                raise malformed(f"no terms for {pair(i, j)}")
            weight = weights[i] + weights[j]
            lo, hi = starts[weight], ends[weight]
            got = {}
            for k, c in terms:
                if not (type(k) is int and lo <= k < hi):
                    if not (type(k) is int and 0 <= k < n_mons):
                        raise malformed(f"term index {k!r} not in range({n_mons})")
                    raise CacheError(f"entry for {pair(i, j)} has a term of weight other than {weight}")
                value = checked.get(c, 0) if type(c) is str else 0
                if not value:
                    value = int(c) if type(c) is str else 0
                    if not value or str(value) != c:
                        raise malformed(f"coefficient {c!r} is not a nonzero decimal string")
                    checked[c] = value
                got[k] = value
            if len(got) != len(terms):
                raise malformed(f"a repeated term in {pair(i, j)}")
            if keep[slot]:
                kept.setdefault(i, {})[j] = got
    except CacheError:
        raise
    except (TypeError, ValueError) as exc:
        raise malformed(f"{type(exc).__name__}: {exc}") from None
    return kept


def verify_structure_document(doc: dict, pres: Presentation, samples=100) -> int:
    """Validate a document against fresh computation.

    With samples=None every product is recomputed; otherwise `samples` random
    pairs within the top weight are checked, drawn by a generator seeded from
    the checksum, so a given document is always probed the same way.
    Returns the number of products verified; raises CacheError on any
    mismatch, and ValueError unless samples is None or an int >= 1.

    Each product is re-derived from the definition, `straighten_word(u + v)`,
    never through the generator fold of `Presentation.row` or the R_g rows
    it folds, so a fault in either cannot vouch for itself.  Only pairs
    within the top weight are re-derived: `_parse_products` rejects every
    entry above it, so every other pair is zero, as grading requires.  The
    full check counts all N^2 pairs; a sampled check draws uniformly among
    the pairs within the top weight.  The draws depend only on the checksum
    and `Presentation.width`, so they are made before the parse, which checks
    every entry but keeps only the sampled products.  A dict has no bytes,
    so its checksum is checked on its canonical re-encode.
    """
    return _check_document(doc, pres, samples, None)


def load_structure_document(path, pres: Presentation, samples=100) -> dict:
    """Read a document and check it against `pres`; returns the document.

    The check is `verify_structure_document` with `samples` re-derivations,
    but the checksum is checked on the file's bytes (`_sealed_checksum`),
    and only bytes that do not hash to it are re-encoded canonically: a file
    loads when its bytes, canonical or not, or its canonical re-encode match
    its checksum.  A file that is not UTF-8 JSON is a CacheError.  Nothing
    is installed: no computation reads a document, which is an export and an
    independent check of the ring's products.
    """
    import json
    with open(path, "rb") as fh:
        data = fh.read()
    sealed = _sealed_checksum(data)
    try:
        text = data.decode()
        del data  # one copy of the file beside the document as it is decoded
        doc = json.loads(text)
    except ValueError as exc:  # UnicodeDecodeError and JSONDecodeError are ValueErrors
        raise CacheError(f"document is not UTF-8 JSON: {exc}") from None
    del text  # nor beside the checks
    _check_document(doc, pres, samples, sealed)
    return doc
