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
procedure (`straighten_word`); the randomized variant `straighten_word_shuffled`
applies the same local rules in an arbitrary order and is kept as an
independent confluence oracle.

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

import hashlib
import json
import math
from itertools import combinations, product as iproduct
from typing import Dict, Iterable, List, Sequence, Tuple

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


def straighten_word_shuffled(word: Iterable[Edge], parity: int, rng) -> Dict[Word, int]:
    """Like `straighten_word`, but applies whichever local rule `rng` picks.

    Intermediate terms are never combined, so the result only depends on the
    rewrite rules themselves; agreement with the deterministic routine over
    many shuffles is the confluence check.
    """
    terms: List[Tuple[int, List[Edge]]] = [(1, [_check_edge(e) for e in word])]
    while True:
        actions = []
        for ti, (_, w) in enumerate(terms):
            for t in range(len(w) - 1):
                x, y = w[t], w[t + 1]
                if x == y:
                    actions.append((ti, t, "kill"))
                elif (x[1], x[0]) > (y[1], y[0]):
                    actions.append((ti, t, "swap"))
                elif x[1] == y[1]:
                    actions.append((ti, t, "split"))
        if not actions:
            break
        ti, t, kind = actions[rng.randrange(len(actions))]
        coeff, w = terms[ti]
        if kind == "kill":
            del terms[ti]
        elif kind == "swap":
            w[t], w[t + 1] = w[t + 1], w[t]
            if parity:
                terms[ti] = (-coeff, w)
        else:
            a, c = w[t]
            b = w[t + 1][0]
            head, tail = w[:t], w[t + 2:]
            terms[ti] = (coeff, head + [(a, b), (b, c)] + tail)
            terms.insert(ti + 1, (-coeff, head + [(a, b), (a, c)] + tail))
    out: Dict[Word, int] = {}
    for coeff, w in terms:
        key = tuple(w)
        total = out.get(key, 0) + coeff
        if total:
            out[key] = total
        else:
            del out[key]
    return out


class Presentation:
    """Presentation of H*(F(R^m, n)): n points in R^m, generators in degree m-1.

    Instances memoize bases and pairwise basis products (integer structure
    constants).  All methods are pure apart from filling these caches.
    """

    def __init__(self, n: int, m: int):
        if n < 1:
            raise ValueError(f"point count n={n} must be >= 1")
        if m < 2:
            raise ValueError(
                f"ambient dimension m={m} must be >= 2 (points on a line cannot be permuted)"
            )
        self.n = n
        self.m = m
        self.degree = m - 1        # cohomological degree of each generator
        self.parity = (m - 1) % 2  # 0: generators commute, 1: anticommute
        self.top_weight = n - 1    # largest factor count of a nonzero monomial
        self._bases: Dict[int, Tuple[Word, ...]] = {}
        self._basis_index: Dict[int, Dict[Word, int]] = {}
        self._products: Dict[Tuple[Word, Word], Dict[Word, int]] = {}

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

    def basis_index(self, k: int) -> Dict[Word, int]:
        idx = self._basis_index.get(k)
        if idx is None:
            idx = {w: i for i, w in enumerate(self.basis(k))}
            self._basis_index[k] = idx
        return idx

    def full_basis(self) -> List[Word]:
        """All admissible monomials, weight by weight; total length is n!."""
        out: List[Word] = []
        for k in range(self.top_weight + 1):
            out.extend(self.basis(k))
        return out

    def straighten(self, word: Sequence[Edge]) -> Dict[Word, int]:
        for i, j in word:
            if j > self.n:
                raise ValueError(f"edge ({i},{j}) out of range for n={self.n}")
        return straighten_word(word, self.parity)

    def product(self, u: Word, v: Word) -> Dict[Word, int]:
        """Structure constants of basis product u * v (memoized).

        A product of more than `top_weight` factors is zero by grading and is
        neither straightened nor memoized: admissible words have strictly
        increasing upper indices in 2..n, and every rewrite keeps the factor
        count.
        """
        if len(u) + len(v) > self.top_weight:
            return {}
        key = (u, v)
        got = self._products.get(key)
        if got is None:
            got = straighten_word(u + v, self.parity)
            self._products[key] = got
        return got

    def adopt_products(self, table: Dict[Tuple[Word, Word], Dict[Word, int]]) -> None:
        """Install a verified product table (see `load_structure_document`)."""
        self._products.update(table)


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
    def from_word(cls, pres, field, word: Sequence[Edge], coeff=1):
        return cls.combine(pres, field, [(field.coerce(coeff), pres.straighten(word))])

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
    if n < 1:
        raise ValueError(f"point count n={n} must be >= 1")
    expanded = rank_polynomial(n)
    pres = Presentation(n, 2)
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


def _document_checksum(payload: dict) -> str:
    data = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(data).hexdigest()


def structure_document(pres: Presentation) -> dict:
    """Versioned JSON-ready dump of the full product table.

    Coefficients are serialized as decimal strings; `basis` lists monomials as
    edge lists in the canonical weight-by-weight order.
    """
    mons = pres.full_basis()
    index = {w: i for i, w in enumerate(mons)}
    products = []
    for i, u in enumerate(mons):
        for j, v in enumerate(mons):
            p = pres.product(u, v)
            if p:
                entry = sorted((index[w], c) for w, c in p.items())
                products.append([i, j, [[k, str(c)] for k, c in entry]])
    payload = {
        "schema_version": STRUCTURE_SCHEMA_VERSION,
        "n": pres.n,
        "m": pres.m,
        "basis": [[list(e) for e in w] for w in mons],
        "products": products,
    }
    payload["checksum"] = _document_checksum({k: payload[k] for k in _CHECKED_KEYS})
    return payload


def document_to_json(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def write_structure_document(pres: Presentation, path) -> dict:
    doc = structure_document(pres)
    with open(path, "w") as fh:
        fh.write(document_to_json(doc))
    return doc


def _parse_document(doc: dict, pres: Presentation):
    """The basis and product table of a document; any malformed shape is a CacheError."""
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
    if doc.get("checksum") != _document_checksum({k: doc[k] for k in _CHECKED_KEYS}):
        raise CacheError("checksum mismatch: document corrupted or stale")
    try:
        mons = [tuple(tuple(e) for e in w) for w in doc["basis"]]
    except TypeError:
        raise CacheError("basis is not a list of edge lists") from None
    if mons != pres.full_basis():
        raise CacheError("basis list does not match the presentation")
    # absent pairs are zero products; install them too so the cache is complete
    table = {(u, v): {} for u in mons for v in mons}
    by_index = dict(enumerate(mons))
    try:
        for i, j, entries in doc["products"]:
            table[(by_index[i], by_index[j])] = {by_index[k]: int(c) for k, c in entries}
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise CacheError(f"malformed product entry ({type(exc).__name__}: {exc})") from None
    return mons, table


def verify_structure_document(doc: dict, pres: Presentation, samples=100, rng=None) -> int:
    """Validate a document against fresh computation.

    With samples=None every product is recomputed; otherwise `samples` random
    pairs are checked (the rng defaults to one seeded from the checksum, so a
    given document is always probed the same way).  Returns the number of
    products verified; raises CacheError on any mismatch.
    """
    mons, table = _parse_document(doc, pres)
    return _check_products(doc, mons, table, pres, samples, rng)


def _check_products(doc: dict, mons: List[Word], table, pres: Presentation, samples, rng) -> int:
    """Re-derive the sampled (or all) products of a parsed document; returns their count."""
    fresh = Presentation(pres.n, pres.m)
    if samples is None:
        pairs = [(u, v) for u in mons for v in mons]
    else:
        import random

        if rng is None:
            rng = random.Random(int(doc["checksum"][:16], 16))
        pairs = [(rng.choice(mons), rng.choice(mons)) for _ in range(samples)]
    for u, v in pairs:
        if table.get((u, v), {}) != fresh.product(u, v):
            raise CacheError(f"stale product for {monomial_str(u)} * {monomial_str(v)}")
    return len(pairs)


def load_structure_document(path, pres: Presentation, samples=100) -> dict:
    """Read, validate and install a product table into `pres`; returns the document."""
    with open(path) as fh:
        doc = json.load(fh)
    mons, table = _parse_document(doc, pres)
    _check_products(doc, mons, table, pres, samples, None)
    pres.adopt_products(table)
    return doc
