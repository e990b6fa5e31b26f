"""The tensor square H* (x) H* of a configuration-space ring.

This models the cohomology of the product space.  The multiplication carries
the Koszul sign, (a (x) b)(c (x) d) = (-1)^{|b||c|} ac (x) bd; restriction to
the diagonal is the algebra map a (x) b -> a*b, and its kernel is the ideal of
zero-divisors.  Two graded quantities drive the bound machinery:

* `zero_divisor_cuplength`: the largest k with Z^k != 0, where Z is the whole
  zero-divisor ideal and powers are iterated as graded product spans;
* `bar_span_length`: the largest k with V_k != 0, where V_1 is spanned by the
  classes bar(g) = g (x) 1 - 1 (x) g of the ring generators and
  V_{k+1} = V_k * V_1.

Both are computed by exact row reduction, one graded piece at a time.  The
bar span is built from labelled products: H (x) H is graded-commutative, so a
product of barred generators depends only on the multiset S of its factors,
up to sign, and V_k keeps one accepted vector bar(S) per basis element.
Multiplying by bar(g) uses precomputed right-multiplication operators R_g on
H, u (x) v -> (-1)^{|v||g|} ug (x) v - u (x) vg, in integer arithmetic (the
structure constants are integers); vectors are coerced into the field only
on entering the echelon basis.  The bar-span route never touches the full
ideal iteration; their agreement (bar span <= cup-length) is a consistency
check, never an input.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .algebra import AlgebraElement, Presentation, Word, format_terms, monomial_str
from .linalg import EchelonBasis, Vec, kernel_basis

Pair = Tuple[Word, Word]
Label = Tuple[int, ...]  # sorted generator indices S, standing for bar(S)


class TensorElement:
    """Sparse element of H* (x) H*; keys are pairs of admissible words."""

    __slots__ = ("pres", "field", "terms")

    def __init__(self, pres: Presentation, field, terms: Dict[Pair, object]):
        self.pres = pres
        self.field = field
        self.terms = {k: c for k, c in terms.items() if c}

    @classmethod
    def zero(cls, pres, field):
        return cls(pres, field, {})

    @classmethod
    def one(cls, pres, field):
        return cls(pres, field, {((), ()): field.one})

    @classmethod
    def of(cls, left: AlgebraElement, right: AlgebraElement):
        """The decomposable tensor left (x) right."""
        left._compatible(right)
        field = left.field
        mul = field.mul
        terms = {}
        for u, cu in left.terms.items():
            for v, cv in right.terms.items():
                terms[(u, v)] = mul(cu, cv)
        return cls(left.pres, field, terms)

    def is_zero(self) -> bool:
        return not self.terms

    @property
    def weight(self) -> Optional[int]:
        """Common total factor count, or None when mixed (0 for zero)."""
        counts = {len(u) + len(v) for u, v in self.terms}
        if not counts:
            return 0
        if len(counts) == 1:
            return counts.pop()
        return None

    @property
    def degree(self) -> Optional[int]:
        w = self.weight
        return None if w is None else w * self.pres.degree

    def is_homogeneous(self) -> bool:
        return self.weight is not None

    def _compatible(self, other: "TensorElement"):
        if not isinstance(other, TensorElement):
            raise TypeError(f"cannot combine TensorElement with {type(other).__name__}")
        if not self.pres.same_ring(other.pres) or self.field != other.field:
            raise ValueError("elements live over different presentations or fields")

    def __add__(self, other):
        self._compatible(other)
        add = self.field.add
        terms = dict(self.terms)
        for k, c in other.terms.items():
            prev = terms.get(k)
            nv = add(prev, c) if prev is not None else c
            if nv:
                terms[k] = nv
            else:
                del terms[k]
        return TensorElement(self.pres, self.field, terms)

    def __neg__(self):
        neg = self.field.neg
        return TensorElement(self.pres, self.field, {k: neg(c) for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, scalar):
        c = self.field.coerce(scalar)
        if not c:
            return TensorElement.zero(self.pres, self.field)
        mul = self.field.mul
        return TensorElement(self.pres, self.field, {k: mul(c, v) for k, v in self.terms.items()})

    def __rmul__(self, scalar):
        if isinstance(scalar, TensorElement):
            return NotImplemented
        return self.scale(scalar)

    def __mul__(self, other):
        if not isinstance(other, TensorElement):
            return self.scale(other)
        self._compatible(other)
        pres, field = self.pres, self.field
        parity = pres.parity
        prod = pres.product
        mul, mul_int, add, neg = field.mul, field.mul_int, field.add, field.neg
        out: Dict[Pair, object] = {}
        for (u1, v1), c1 in self.terms.items():
            lv1 = len(v1)
            for (u2, v2), c2 in other.terms.items():
                pu = prod(u1, u2)
                if not pu:
                    continue
                pv = prod(v1, v2)
                if not pv:
                    continue
                c = mul(c1, c2)
                if parity and lv1 & len(u2) & 1:
                    c = neg(c)
                for wu, ku in pu.items():
                    for wv, kv in pv.items():
                        contrib = mul_int(c, ku * kv)
                        key = (wu, wv)
                        prev = out.get(key)
                        nv = add(prev, contrib) if prev is not None else contrib
                        if nv:
                            out[key] = nv
                        else:
                            del out[key]
        return TensorElement(pres, field, out)

    def __eq__(self, other):
        if not isinstance(other, TensorElement):
            return NotImplemented
        return (
            self.pres.same_ring(other.pres)
            and self.field == other.field
            and self.terms == other.terms
        )

    def __repr__(self):
        return format_terms(
            self.terms, lambda k: f"{monomial_str(k[0])}(x){monomial_str(k[1])}"
        )


def tensor_multiply(x: TensorElement, y: TensorElement) -> TensorElement:
    return x * y


def diagonal_restriction(x: TensorElement) -> AlgebraElement:
    """Restriction to the diagonal: a (x) b -> a*b, extended linearly."""
    pres, field = x.pres, x.field
    add, mul_int = field.add, field.mul_int
    prod = pres.product
    out: Dict[Word, object] = {}
    for (u, v), c in x.terms.items():
        for w, k in prod(u, v).items():
            contrib = mul_int(c, k)
            prev = out.get(w)
            nv = add(prev, contrib) if prev is not None else contrib
            if nv:
                out[w] = nv
            else:
                del out[w]
    return AlgebraElement(pres, field, out)


def bar(v: AlgebraElement) -> TensorElement:
    """The zero-divisor v (x) 1 - 1 (x) v of a homogeneous positive-degree class."""
    if v.is_zero():
        return TensorElement.zero(v.pres, v.field)
    if not v.is_homogeneous():
        raise ValueError("bar requires a homogeneous class")
    if v.weight == 0:
        raise ValueError("bar requires positive degree")
    neg = v.field.neg
    terms: Dict[Pair, object] = {(w, ()): c for w, c in v.terms.items()}
    for w, c in v.terms.items():
        terms[((), w)] = neg(c)
    return TensorElement(v.pres, v.field, terms)


def koszul_swap(x: TensorElement) -> TensorElement:
    """The involution a (x) b -> (-1)^{|a||b|} b (x) a."""
    parity = x.pres.parity
    neg = x.field.neg
    terms: Dict[Pair, object] = {}
    for (u, v), c in x.terms.items():
        if parity and len(u) & len(v) & 1:
            c = neg(c)
        terms[(v, u)] = c
    return TensorElement(x.pres, x.field, terms)


# ---------------------------------------------------------------------------
# graded pieces and subspaces
# ---------------------------------------------------------------------------

class GradedSubspace:
    """A row-reduced subspace of one graded piece of the tensor square."""

    def __init__(self, square: "TensorSquare", weight: Optional[int],
                 echelon: EchelonBasis, degree: Optional[int] = None):
        self.square = square
        self.weight = weight
        if weight is not None:
            self.degree = weight * square.pres.degree
            self.ambient = square.basis(weight)
        else:
            # a degree where the grading is empty (not a multiple of m-1)
            self.degree = degree
            self.ambient = []
        self.echelon = echelon

    @property
    def dim(self) -> int:
        return self.echelon.dim

    def contains(self, x: TensorElement) -> bool:
        if x.is_zero():
            return True
        if self.weight is None or x.weight != self.weight:
            return False
        return self.echelon.contains(self.square.coords(x))

    def basis_elements(self) -> List[TensorElement]:
        return [self.square.element(self.weight, row) for row in self.echelon.vectors()]

    def __repr__(self):
        return f"GradedSubspace(weight={self.weight}, dim={self.dim}, ambient={len(self.ambient)})"


class TensorSquare:
    """Graded coordinate model of H* (x) H* over a fixed field.

    Caches bases, the diagonal kernels per weight and the full bar-span levels;
    all computations consume frozen data, so instances are safe to share once
    warmed up.
    """

    def __init__(self, pres: Presentation, field):
        self.pres = pres
        self.field = field
        self.top_weight = 2 * pres.top_weight
        self._bases: Dict[int, List[Pair]] = {}
        self._index: Dict[int, Dict[Pair, int]] = {}
        self._zkernels: Dict[int, EchelonBasis] = {}
        self._bar_levels: Optional[List[List[Label]]] = None

    def basis(self, w: int) -> List[Pair]:
        got = self._bases.get(w)
        if got is None:
            got = []
            for k1 in range(w + 1):
                for u in self.pres.basis(k1):
                    for v in self.pres.basis(w - k1):
                        got.append((u, v))
            self._bases[w] = got
        return got

    def index(self, w: int) -> Dict[Pair, int]:
        got = self._index.get(w)
        if got is None:
            got = {p: i for i, p in enumerate(self.basis(w))}
            self._index[w] = got
        return got

    def dim(self, w: int) -> int:
        return len(self.basis(w))

    def coords(self, x: TensorElement, weight: Optional[int] = None) -> Vec:
        w = x.weight if weight is None else weight
        if w is None:
            raise ValueError("coordinates require a homogeneous element")
        idx = self.index(w)
        return {idx[k]: c for k, c in x.terms.items()}

    def element(self, w: int, vec: Vec) -> TensorElement:
        basis = self.basis(w)
        return TensorElement(self.pres, self.field, {basis[i]: c for i, c in vec.items()})

    # -- multiplication in coordinates (the hot path) -----------------------

    def multiply_coords(self, w1: int, a: Vec, w2: int, b: Vec) -> Vec:
        field = self.field
        mul, mul_int, add, neg = field.mul, field.mul_int, field.add, field.neg
        prod = self.pres.product
        parity = self.pres.parity
        basis1, basis2 = self.basis(w1), self.basis(w2)
        idx = self.index(w1 + w2)
        out: Vec = {}
        for ia, ca in a.items():
            u1, v1 = basis1[ia]
            lv1 = len(v1)
            for ib, cb in b.items():
                u2, v2 = basis2[ib]
                pu = prod(u1, u2)
                if not pu:
                    continue
                pv = prod(v1, v2)
                if not pv:
                    continue
                c = mul(ca, cb)
                if parity and lv1 & len(u2) & 1:
                    c = neg(c)
                for wu, ku in pu.items():
                    for wv, kv in pv.items():
                        k = idx[(wu, wv)]
                        contrib = mul_int(c, ku * kv)
                        prev = out.get(k)
                        nv = add(prev, contrib) if prev is not None else contrib
                        if nv:
                            out[k] = nv
                        else:
                            del out[k]
        return out

    # -- zero divisors -------------------------------------------------------

    def diagonal_kernel(self, w: int) -> EchelonBasis:
        """Kernel of the diagonal restriction on the weight-w piece."""
        got = self._zkernels.get(w)
        if got is None:
            coerce = self.field.coerce
            alg_index = self.pres.basis_index(w)
            images = []
            for u, v in self.basis(w):
                images.append({alg_index[m]: coerce(c) for m, c in self.pres.product(u, v).items()})
            got = kernel_basis(self.field, images, self.dim(w))
            self._zkernels[w] = got
        return got

    def _span_product(self, current: Dict[int, List[Vec]],
                      factor: Dict[int, List[Vec]]) -> Dict[int, EchelonBasis]:
        """Echelonized products span(current * factor), one piece per weight."""
        out: Dict[int, EchelonBasis] = {}
        for w1, vecs1 in current.items():
            if not vecs1:
                continue
            for w2, vecs2 in factor.items():
                w = w1 + w2
                if w > self.top_weight or not vecs2:
                    continue
                eb = out.get(w)
                if eb is None:
                    eb = EchelonBasis(self.field, self.dim(w))
                    out[w] = eb
                if eb.is_full():
                    continue
                for a in vecs1:
                    for b in vecs2:
                        p = self.multiply_coords(w1, a, w2, b)
                        if p:
                            eb.insert(p)
                    if eb.is_full():
                        break
        return {w: eb for w, eb in out.items() if eb.dim}

    def zero_divisor_power_profile(self, max_power: Optional[int] = None) -> List[Dict[int, int]]:
        """Dimensions of the graded pieces of Z^1, Z^2, ... until the power dies.

        Entry k-1 maps weight -> dim of the weight piece of Z^k.  The list
        stops at the last nonzero power (or at max_power).
        """
        if self.top_weight == 0:
            return []
        z1 = {
            w: self.diagonal_kernel(w).vectors()
            for w in range(1, self.top_weight + 1)
            if self.diagonal_kernel(w).dim
        }
        if not z1:
            return []
        profile = [{w: len(vs) for w, vs in z1.items()}]
        current = z1
        while max_power is None or len(profile) < max_power:
            nxt = self._span_product(current, z1)
            if not nxt:
                break
            profile.append({w: eb.dim for w, eb in sorted(nxt.items())})
            current = {w: eb.vectors() for w, eb in nxt.items()}
        return profile

    def zero_divisor_cuplength(self) -> int:
        return len(self.zero_divisor_power_profile())

    # -- products of barred generators ---------------------------------------

    def _generator_operators(self) -> List[List[List[Tuple[int, int]]]]:
        """R_g for each generator g: ops[g][iu] lists (iw, k) with u * g = sum k * w.

        Indices run over `Presentation.full_basis()`; this is the only place
        the bar-span engine asks the presentation for products.
        """
        pres = self.pres
        mons = pres.full_basis()
        index = {w: i for i, w in enumerate(mons)}
        return [
            [[(index[w], k) for w, k in pres.product(u, (g,)).items()] for u in mons]
            for g in pres.generators()
        ]

    def _bar_span_levels(self, max_power: Optional[int]) -> List[List[Label]]:
        """Labels of the accepted basis vectors of V_1, V_2, ..., level by level.

        A label is the sorted tuple of generator indices S, standing for the
        integer vector bar(S) in flat coordinates iu * N + iv over the full
        basis of H (N = n!).  Since bar(S) depends on the multiset S only up
        to sign, V_{k+1} is spanned by bar(S + g) over the labels S of
        V_k, and each new label is multiplied out once.
        """
        cached = self._bar_levels
        if cached is not None:
            # V_1 is always reported, as when the levels are computed
            return cached if max_power is None else cached[:max(max_power, 1)]
        pres, field = self.pres, self.field
        gens = pres.generators()
        if not gens:
            return []
        mons = pres.full_basis()
        n_mons = len(mons)
        ops = self._generator_operators()
        # Koszul sign of (u (x) v)(g (x) 1) = (-1)^{|v||g|} ug (x) v
        odd = [bool(pres.parity and len(w) & 1) for w in mons]
        coerce = field.coerce

        def to_field(vec: Dict[int, int]) -> Vec:
            row = {f: coerce(c) for f, c in vec.items()}
            return {f: c for f, c in row.items() if c}

        def times_bar(vec: Dict[int, int], op) -> Dict[int, int]:
            # u (x) v -> (-1)^{parity |v|} ug (x) v - u (x) vg, over Z
            out: Dict[int, int] = {}
            get = out.get
            for f, c in vec.items():
                iu, iv = divmod(f, n_mons)
                cu = -c if odd[iv] else c
                for iw, k in op[iu]:
                    key = iw * n_mons + iv
                    out[key] = get(key, 0) + cu * k
                base = iu * n_mons
                for iw, k in op[iv]:
                    key = base + iw
                    out[key] = get(key, 0) - c * k
            return {f: c for f, c in out.items() if c}

        # bar(g) = g (x) 1 - 1 (x) g; the unit is full-basis index 0
        eb = EchelonBasis(field, self.dim(1))
        level: List[Tuple[Label, Dict[int, int]]] = []
        weight1 = pres.basis_index(1)
        for gi, g in enumerate(gens):
            ig = weight1[(g,)] + 1
            vec = {ig * n_mons: 1, ig: -1}
            if eb.insert(to_field(vec)):
                level.append(((gi,), vec))
        levels = [[label for label, _ in level]]
        # bar(g)^2 = 0 when |g| is odd, so such labels never repeat a generator
        square_free = bool(pres.parity)
        while len(levels) < self.top_weight and (max_power is None or len(levels) < max_power):
            eb = EchelonBasis(field, self.dim(len(levels) + 1))
            seen = set()
            nxt: List[Tuple[Label, Dict[int, int]]] = []
            for label, vec in level:
                for gi, op in enumerate(ops):
                    if square_free and gi in label:
                        continue
                    new = tuple(sorted(label + (gi,)))
                    if new in seen:
                        continue
                    seen.add(new)
                    prod = times_bar(vec, op)
                    row = to_field(prod)
                    if row and eb.insert(row):
                        nxt.append((new, prod))
                        if eb.is_full():
                            break
                if eb.is_full():
                    break
            if not nxt:
                break
            levels.append([label for label, _ in nxt])
            level = nxt
        if max_power is None:
            self._bar_levels = levels
        return levels

    def bar_span_profile(self, max_power: Optional[int] = None) -> List[int]:
        """Dimensions of V_1, V_2, ... where V_1 = span of barred generators.

        V_{k+1} = V_k * V_1 is built from labelled products: the basis of V_k
        is kept as accepted vectors bar(S), one per sorted multiset S of
        generators, and V_{k+1} is spanned by bar(S + g).  Multiplying by
        bar(g) applies the precomputed right-multiplication operators R_g of
        H in Kronecker form, in integer arithmetic; a vector is coerced into
        the field only when it is offered to the echelon basis.  The list
        stops at the last nonzero V_k (or at max_power).
        """
        return [len(level) for level in self._bar_span_levels(max_power)]

    def bar_span_witness(self) -> Word:
        """Generators g_1 <= ... <= g_L with bar(g_1) ... bar(g_L) != 0, L the bar-span length.

        Empty when there are no generators (n = 1).
        """
        levels = self._bar_span_levels(None)
        if not levels:
            return ()
        gens = self.pres.generators()
        return tuple(gens[gi] for gi in levels[-1][0])

    def bar_span_length(self) -> int:
        return len(self.bar_span_profile())


# ---------------------------------------------------------------------------
# one-shot entry points
# ---------------------------------------------------------------------------

def zero_divisor_subspace(pres: Presentation, field, degree: int,
                          square: Optional[TensorSquare] = None) -> GradedSubspace:
    """Zero-divisors of the given cohomological degree, as a row-reduced subspace."""
    d = pres.degree
    top = 2 * pres.top_weight * d
    if degree <= 0 or degree > top:
        raise ValueError(f"degree {degree} out of range (0, {top}]")
    if square is None:
        square = TensorSquare(pres, field)
    if degree % d:
        return GradedSubspace(square, None, EchelonBasis(field, 0), degree=degree)
    w = degree // d
    return GradedSubspace(square, w, square.diagonal_kernel(w))


def zero_divisor_cuplength(pres: Presentation, field,
                           square: Optional[TensorSquare] = None) -> int:
    if square is None:
        square = TensorSquare(pres, field)
    return square.zero_divisor_cuplength()


def bar_span_length(pres: Presentation, field,
                    square: Optional[TensorSquare] = None) -> int:
    if square is None:
        square = TensorSquare(pres, field)
    return square.bar_span_length()
