"""The tensor square H* (x) H* of a configuration-space ring.

This models the cohomology of the product space.  The multiplication carries
the Koszul sign, (a (x) b)(c (x) d) = (-1)^{|b||c|} ac (x) bd; restriction to
the diagonal is the algebra map a (x) b -> a*b, and its kernel is the ideal Z
of zero-divisors.

The bound machinery needs one graded quantity, the bar-span length: the
largest k with V_k != 0, where V_1 is spanned by the classes
bar(g) = g (x) 1 - 1 (x) g of the ring generators and V_{k+1} = V_k * V_1.
By the zero-divisor lemma Z is the ideal generated by the bar(g), so
Z^k = (H (x) H) * V_k and the bar-span length is the zero-divisor
cup-length, over every field.

The bar span is built from labelled products: H (x) H is graded-commutative,
so a product of barred generators depends only on the multiset S of its
factors, up to sign, and V_k keeps one accepted vector bar(S) per basis
element.  Multiplying by bar(g) uses precomputed right-multiplication
operators R_g on H, u (x) v -> (-1)^{|v||g|} ug (x) v - u (x) vg, in integer
arithmetic (the structure constants are integers); vectors are coerced into
the field only on entering the echelon basis.  The flat coordinates
iu * N + iv of these vectors run over the basis of H in reverse, top weight
first and the unit last, so that the echelon's leftmost pivots fall where the
products are sparse and the accepted rows do not fill in; the spans do not
depend on this order.

`TensorSquare.zero_divisor_power_profile` iterates the powers of the whole
ideal Z from the diagonal kernels instead.  It is the reference oracle that
the tests and the selftest compare the bar span against, never an input to a
report.  It works in coordinates, and `TensorSquare.multiply_coords` is only
the coordinate view of `TensorElement.__mul__`: there is one Koszul product.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .algebra import AlgebraElement, Presentation, SparseElement, Word, monomial_str
from .linalg import EchelonBasis, Vec, kernel_basis

Pair = Tuple[Word, Word]
Label = Tuple[int, ...]  # sorted generator indices S, standing for bar(S)


class TensorElement(SparseElement):
    """Sparse element of H* (x) H*; keys are pairs of admissible words."""

    __slots__ = ()
    UNIT = ((), ())

    @staticmethod
    def _factors(key: Pair) -> int:
        return len(key[0]) + len(key[1])

    @staticmethod
    def _key_str(key: Pair) -> str:
        return f"{monomial_str(key[0])}(x){monomial_str(key[1])}"

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

    def _product(self, other):
        # (u1 (x) v1)(u2 (x) v2) = (-1)^{|v1||u2|} u1 u2 (x) v1 v2
        pres, field = self.pres, self.field
        parity = pres.parity
        prod = pres.product
        mul, add, neg = field.mul, field.add, field.neg
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
                        contrib = mul(c, ku * kv)
                        key = (wu, wv)
                        prev = out.get(key)
                        nv = add(prev, contrib) if prev is not None else contrib
                        if nv:
                            out[key] = nv
                        else:
                            del out[key]
        return TensorElement(pres, field, out)


def diagonal_restriction(x: TensorElement) -> AlgebraElement:
    """Restriction to the diagonal: a (x) b -> a*b, extended linearly."""
    prod = x.pres.product
    parts = ((c, prod(u, v)) for (u, v), c in x.terms.items())
    return AlgebraElement.combine(x.pres, x.field, parts)


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


class TensorSquare:
    """Graded coordinate model of H* (x) H* over a fixed field.

    Caches bases, the full bar-span levels and, for the reference oracle, the
    diagonal kernels per weight; all computations consume frozen data, so
    instances are safe to share once warmed up.
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

    # -- the zero-divisor ideal, iterated in full (reference oracle) ---------

    def multiply_coords(self, x: TensorElement, y: TensorElement, w: int) -> Vec:
        """Coordinates of x * y in the weight-w basis (w the weight of the product)."""
        return self.coords(x * y, w)

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
        left = {w: [self.element(w, a) for a in vecs] for w, vecs in current.items()}
        right = {w: [self.element(w, b) for b in vecs] for w, vecs in factor.items()}
        out: Dict[int, EchelonBasis] = {}
        for w1, xs in left.items():
            if not xs:
                continue
            for w2, ys in right.items():
                w = w1 + w2
                if w > self.top_weight or not ys:
                    continue
                eb = out.get(w)
                if eb is None:
                    eb = EchelonBasis(self.field, self.dim(w))
                    out[w] = eb
                if eb.is_full():
                    continue
                for x in xs:
                    for y in ys:
                        p = self.multiply_coords(x, y, w)
                        if p:
                            eb.insert(p)
                    if eb.is_full():
                        break
        return {w: eb for w, eb in out.items() if eb.dim}

    def zero_divisor_power_profile(self, max_power: Optional[int] = None) -> List[Dict[int, int]]:
        """Dimensions of the graded pieces of Z^1, Z^2, ... until the power dies.

        Entry k-1 maps weight -> dim of the weight piece of Z^k.  The list
        stops at the last nonzero power (or at max_power), so its length is
        the zero-divisor cup-length.  Only tests and the selftest call this:
        reports take the cup-length from `bar_span_length`.
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

    # -- products of barred generators ---------------------------------------

    def _generator_operators(self, mons: List[Word],
                             index: Dict[Word, int]) -> List[List[List[Tuple[int, int]]]]:
        """R_g for each generator g: ops[g][iu] lists (iw, k) with u * g = sum k * w.

        Indices run over `mons`, with `index` its inverse; this is the only
        place the bar-span engine asks the presentation for products.
        """
        pres = self.pres
        return [
            [[(index[w], k) for w, k in pres.product(u, (g,)).items()] for u in mons]
            for g in pres.generators()
        ]

    def _bar_span_levels(self, max_power: Optional[int]) -> List[List[Label]]:
        """Labels of the accepted basis vectors of V_1, V_2, ..., level by level.

        A label is the sorted tuple of generator indices S, standing for the
        integer vector bar(S) in flat coordinates iu * N + iv over the full
        basis of H (N = n!) in reverse: top weight first, the lex-last
        admissible monomial of a weight first, the unit last.  Since bar(S)
        depends on the multiset S only up to sign, V_{k+1} is spanned by
        bar(S + g) over the labels S of V_k, and each new label is multiplied
        out once.

        The order is chosen for fill-in only.  The echelon pivots on the
        leftmost nonzero coordinate, so here it eliminates high-weight,
        high-upper-index coordinates first, where products of barred
        generators are sparse, and the accepted rows stay short.  Spans,
        labels and witnesses do not depend on it: the same labels are
        offered in the same order and acceptance is span membership.
        """
        cached = self._bar_levels
        if cached is not None:
            # V_1 is always reported, as when the levels are computed
            return cached if max_power is None else cached[:max(max_power, 1)]
        pres, field = self.pres, self.field
        gens = pres.generators()
        if not gens:
            return []
        mons = pres.full_basis()[::-1]
        n_mons = len(mons)
        index = {w: i for i, w in enumerate(mons)}
        ops = self._generator_operators(mons, index)
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

        # bar(g) = g (x) 1 - 1 (x) g; the unit is the last index, N - 1
        unit = n_mons - 1
        eb = EchelonBasis(field, self.dim(1))
        level: List[Tuple[Label, Dict[int, int]]] = []
        for gi, g in enumerate(gens):
            ig = index[(g,)]
            vec = {ig * n_mons + unit: 1, unit * n_mons + ig: -1}
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
        """Largest k with V_k != 0: the zero-divisor cup-length over this field."""
        return len(self.bar_span_profile())

