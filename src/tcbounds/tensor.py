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
element.  Multiplying by bar(g) uses the right-multiplication operators R_g
on H, u (x) v -> (-1)^{|v||g|} ug (x) v - u (x) vg, in integer arithmetic,
in the indices of `Presentation.full_basis()`, each row of R_g filled on its
first read from the Arnold relation; the echelon takes these integer vectors
as they are.

Every bar(S) in the package is held by its half.  The Koszul swap
tau(u (x) v) = (-1)^{|u||v|} v (x) u is an algebra automorphism of H (x) H
with tau(bar g) = -bar g, so tau(bar S) = (-1)^{|S|} bar S: in the flat
coordinates f = iu * N + iv (`TensorSquare._operators` keys N^2 - 1 - f),

    x[iv * N + iu] = mirror * x[iu * N + iv],  mirror = (-1)^{|S| + |u||v|},

a sign fixed by the weights of u and v (|S| is their sum).  A vector in that
tau-eigenspace that vanishes on the coordinates iu <= iv vanishes everywhere,
over every field, characteristic 2 included.  So bar(S) is stored, multiplied
and tested for zero by that half alone (the diagonal kept), and the echelon's
ranks and acceptance are those of the full vectors.  The echelon width stays
dim (H (x) H)_k (at n = 2, odd m, V_2 = (H (x) H)_2 is spanned by a diagonal
vector).

Where the ring splits at the decone (`TensorSquare._decone_splits`: even m
over any field, odd m over Z_2, n >= 2), the span is built in the square of
the quotient H/(e_12), a quarter as wide and with one generator fewer, and
dim V_k = dim W_k + dim W_{k-1} gives its profile.  `barspan` prints that
profile and, as its witness, e_12 in front of the first label of the last
level.  Odd m over Q or Z_p (p odd), and n = 1, build the span in full.
The route also chooses the echelon: on the split route nearly every product
is independent and goes straight to the rank-test `EchelonBasis.insert`; on
the full one most are dependent, and each is reduced in full first.  Over
Z_2 no label repeats a generator, since bar(g)^2 is 0 mod 2.

Reports never build the span or form a tensor element: the paper's witness,
nonzero by its closed-form coefficient (`Presentation.witness_terms`), bounds
the length from below.  Its length is the top weight 2n - 2, or else 2n - 3
where the ring splits at the decone, which kills every product of 2n - 2
barred generators (`bounds.zero_divisor_cuplength`).  The span is what
`barspan` prints and what the tests compare that route against.

`TensorSquare.zero_divisor_power_profile` iterates the powers of the whole
ideal Z from the diagonal kernels instead: the reference oracle of the tests,
never an input to a report.  `TensorSquare.multiply_coords` is only the
coordinate view of `TensorElement.__mul__`: there is one Koszul product.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .algebra import AlgebraElement, Presentation, SparseElement, Word, monomial_str, rank_polynomial
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

    Caches bases, the span's levels and, for the reference oracle, the
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
        self._levels_cache: Optional[List[List[Label]]] = None  # by _levels

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
        return _square_dim(rank_polynomial(self.pres.n), w)  # the ranks of H: no pair is listed

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
            # the kernel does not depend on how the image columns are labelled
            alg_index = self.pres._coordinates().index
            images = []
            for u, v in self.basis(w):
                images.append({alg_index[m]: c for m, c in self.pres.product(u, v).items()})
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
                            eb.insert(eb.reduce(p))  # mostly dependent: reduced in full
                    if eb.is_full():
                        break
        return {w: eb for w, eb in out.items() if eb.dim}

    def zero_divisor_power_profile(self) -> List[Dict[int, int]]:
        """Dimensions of the graded pieces of Z^1, Z^2, ... until the power dies.

        Entry k-1 maps weight -> dim of the weight piece of Z^k.  The list
        stops at the last nonzero power, so its length is the zero-divisor
        cup-length.  Only the tests call this: reports take it from
        `bounds.zero_divisor_cuplength`.
        """
        if self.top_weight == 0:
            return []
        # integer rows: echelon rows that span what the RREF rows span, so
        # the products span the same spaces without a Fraction
        z1 = {
            w: self.diagonal_kernel(w).integer_rows()
            for w in range(1, self.top_weight + 1)
            if self.diagonal_kernel(w).dim
        }
        if not z1:
            return []
        profile = [{w: len(vs) for w, vs in z1.items()}]
        current = z1
        while True:
            nxt = self._span_product(current, z1)
            if not nxt:
                break
            profile.append({w: eb.dim for w, eb in sorted(nxt.items())})
            current = {w: eb.integer_rows() for w, eb in nxt.items()}
        return profile

    # -- products of barred generators ---------------------------------------

    def _operators(self, split: bool):
        """(one, gens, times_bar, ranks): multiplying by bar(g) on halves, over Z.

        u (x) v sits at N^2 - 1 - f, f = iu * N + iv, with iu and iv the indices
        of u and v in `Presentation.full_basis()` (N = n!), so one =
        {N^2 - 1: 1} is 1 (x) 1 (see `_times_bar`).  gens is the range of
        generator indices, and times_bar(vec, g) maps the half of bar(S) (its
        coordinates iu <= iv, module docstring) to the half of bar(S) * bar(g),
        with the rows of R_g of `Presentation.right_operators()`, each filled
        on its first read; ranks are those of the ring that is squared.

        With split, that ring is H/(x), x = e_12, in the coordinates of H: the
        quotient's basis is the admissible words without e_12, and its R_g
        rows are those of H, filtered on first read, with every term that
        holds e_12 dropped.  That drop is the quotient map, an algebra map, so
        the products are exact.  gens omits x; H = (1 + t) H/(x) as graded
        spaces gives the ranks.
        """
        pres = self.pres
        ops, fill = pres.right_operators(), pres.right_operator_row
        ranks = rank_polynomial(pres.n)
        one = {len(pres.full_basis()) ** 2 - 1: 1}
        if not split:
            return one, range(len(ops)), _times_bar(pres, ops, fill), ranks
        # e_12 is the one letter of upper index 2, so it leads a word that holds it
        kept = [w[:1] != ((1, 2),) for w in pres.full_basis()]
        rows = [[None] * len(op) for op in ops]

        def quotient_row(g: int, iu: int) -> List[Tuple[int, int]]:
            row = ops[g][iu]
            if row is None:
                row = fill(g, iu)
            rows[g][iu] = got = [(iw, k) for iw, k in row if kept[iw]]
            return got

        quotient_ranks = [1]
        for r in ranks[1:-1]:
            quotient_ranks.append(r - quotient_ranks[-1])
        return one, range(1, len(ops)), _times_bar(pres, rows, quotient_row), quotient_ranks

    def _decone_splits(self) -> bool:
        """Whether the ring splits at the decone, so the span may be built in H/(e_12).

        Where `Presentation.decone_splits` holds, n >= 2, and m is even or 2 = 0 in the field.

        Proof.  (b) Where the contraction d is defined, take x = e_12:
        a = d(xa) + x da and dd = 0, so H = B (+) xB with B = ker d a
        subalgebra, and x is injective on B.  xH = xB is an ideal, B maps
        isomorphically onto H/xH, and H/xH has the admissible words without
        e_12 as its basis (those with it are x times an admissible word,
        n!/2 = dim xB of them).  B is 0 in the top weight n - 1: there
        a = d(xa) = 0, since xa has weight n.
        (c) For g != x, g - x lies in B and bar(g) = bar(g - x) + bar(x);
        bar(x)^2 = 0 (x odd, or mod 2) and bar(x) graded-commutes with every
        bar.  So V_k = W_k + bar(x) W_{k-1}, W_k spanned by the k-fold products
        of bar(g - x), g != x, in B (x) B.  bar(x) W_{k-1} lies in
        xB (x) B (+) B (x) xB, so the sum is direct, and bar(x) is injective on
        B (x) B.  The quotient map sends W_k onto the span of the k-fold
        products of bar(g), g != x, in the square of H/xH, isomorphically.
        Hence dim V_k = dim W_k + dim W_{k-1}, with dim W_0 = 1.  B (x) B is 0
        above weight 2n - 4, so V_{2n-2} = 0: the bar-span length is at most
        2n - 3.
        """
        pres = self.pres
        field_rule = bool(pres.parity) or self.field.characteristic == 2
        return pres.n >= 2 and field_rule and pres.decone_splits()

    def _span_levels(self, split: bool) -> List[List[Label]]:
        """Labels of the accepted basis vectors of the span, level by level.

        W_1, W_2, ... in the square of H/(e_12) with split, else V_1, V_2, ...,
        with the operators of `_operators(split)`.  A label is the sorted tuple
        of generator indices S, standing for the integer vector bar(S) in the
        flat coordinates of `_operators`.  Since bar(S) depends on the
        multiset S only up to sign, level k + 1 is spanned by bar(S + g) over
        the labels S of level k, and each new label is multiplied out once.

        Each bar(S) is its half as `times_bar` returns it, which determines
        it (module docstring): the echelon takes half rows without changing a
        rank, its width the dimension of the square's weight-k piece, and
        `level` keeps the same vector for the next multiplication.

        The route sets the echelon: on the split route each product goes
        straight to the rank-test `insert`; on the full one most are dependent
        (5,896 of 10,031 at n = 5, m = 3 over Q), and each is reduced in full
        first, so that it does not cascade through the fill-in of less reduced
        rows.
        """
        one, gens, times_bar, ranks = self._operators(split)
        pres, field = self.pres, self.field
        top = 2 * (len(ranks) - 1)
        # bar(g)^2 is 0 for odd |g| and -2 g (x) g for even |g| (`witness_terms`),
        # so over Z_2 too a label that repeats a generator is never accepted
        square_free = bool(pres.parity) or field.characteristic == 2
        levels: List[List[Label]] = []
        level: List[Tuple[Label, Dict[int, int]]] = [((), one)]  # the empty label: 1 (x) 1
        while len(levels) < top:
            eb = EchelonBasis(field, _square_dim(ranks, len(levels) + 1))
            seen = set()
            nxt: List[Tuple[Label, Dict[int, int]]] = []
            for label, vec in level:
                for gi in gens:
                    if square_free and gi in label:
                        continue
                    new = tuple(sorted(label + (gi,)))
                    if new in seen:
                        continue
                    seen.add(new)
                    prod = times_bar(vec, gi)
                    offered = prod if split else eb.reduce(prod)
                    if offered and eb.insert(offered):
                        nxt.append((new, prod))
                        if len(nxt) == eb.width:
                            break
                if len(nxt) == eb.width:
                    break
            if not nxt:
                break
            levels.append([label for label, _ in nxt])
            level = nxt
        return levels

    def _levels(self) -> List[List[Label]]:
        """Labels of the span's levels: W_1, W_2, ... where `_decone_splits`, else V_1, V_2, ..."""
        if self._levels_cache is None:
            self._levels_cache = self._span_levels(self._decone_splits())
        return self._levels_cache

    def bar_span_profile(self) -> List[int]:
        """Dimensions of V_1, V_2, ... where V_1 = span of barred generators.

        The list stops at the last nonzero V_k.  Where the decone splits it is
        dim W_k + dim W_{k-1} (`_decone_splits`).
        """
        dims = [len(level) for level in self._levels()]
        if not self._decone_splits():
            return dims
        return [a + b for a, b in zip([1] + dims, dims + [0])]

    def bar_span_witness(self) -> Word:
        """Generators g_1 <= ... <= g_L with bar(g_1) ... bar(g_L) != 0, L the bar-span length.

        The first label of the span's last level, with e_12 in front where the
        decone splits: for S in W_{L-1}, bar(e_12) bar(S) is bar(e_12) times
        the product of bar(g - e_12), g in S, nonzero since bar(e_12) is
        injective on B (x) B (part (c) of `_decone_splits`).  Empty at n = 1.
        """
        levels = self._levels()
        label = levels[-1][0] if levels else ()
        if self._decone_splits():
            label = (0,) + label
        gens = self.pres.generators()
        return tuple(gens[gi] for gi in label)

    def bar_span_length(self) -> int:
        """Largest k with V_k != 0: the zero-divisor cup-length over this field."""
        return len(self.bar_span_profile())


def _square_dim(ranks: List[int], w: int) -> int:
    """Dimension of the weight-w piece of A (x) A, for A with the given ranks."""
    return sum(r * ranks[w - k] for k, r in enumerate(ranks) if 0 <= w - k < len(ranks))


def _times_bar(pres: Presentation, ops, fill):
    """times_bar(vec, g): the half of bar(S) (module docstring) to the half of bar(S) * bar(g).

    ops[g][iu] is R_g's row iu as (iw, k) pairs, or None until fill(g, iu)
    fills it.  An entry c at iu < iv also stands for mirror * c at (iv, iu):
    a term w of u * g goes to (iw, iv) with the Koszul sign when iw <= iv,
    and to (iv, iw) with -mirror * c when iw >= iv.

    u (x) v is keyed N^2 - 1 - f, f = iu * N + iv: the basis of H reversed,
    top weight and lex-last monomial first, where the echelon, which pivots
    on the leftmost coordinate, meets few pivot columns per product.  It
    moves fill-in only: the same labels are offered in the same order, and
    acceptance is span membership.
    """
    weights = pres._coordinates().weights
    n_mons = len(weights)
    last = n_mons * n_mons - 1
    # Koszul sign of (u (x) v)(g (x) 1) = (-1)^{|v||g|} ug (x) v
    odd = [bool(pres.parity and w & 1) for w in weights]
    # mirror[len(u)][len(v)]: whether (iv, iu) holds -1 times (iu, iv)
    mirror = [[(a + b + pres.parity * a * b) & 1 for b in range(pres.n)] for a in range(pres.n)]

    def times_bar(vec: Dict[int, int], g: int) -> Dict[int, int]:
        # u (x) v -> (-1)^{parity |v|} ug (x) v - u (x) vg, on halves
        op = ops[g]
        out: Dict[int, int] = {}
        get = out.get
        for r, c in vec.items():
            iu, iv = divmod(last - r, n_mons)
            base = last - iu * n_mons
            row = op[iv]
            if row is None:
                row = fill(g, iv)
            for iw, k in row:
                key = base - iw
                out[key] = get(key, 0) - c * k
            if iu == iv:  # no mirror, and ug (x) u lies below the diagonal
                continue
            cu = -c if odd[iv] else c
            cm = c if mirror[weights[iu]][weights[iv]] else -c
            base = last - iv * n_mons
            row = op[iu]
            if row is None:
                row = fill(g, iu)
            for iw, k in row:
                if iw <= iv:
                    key = last - iw * n_mons - iv
                    out[key] = get(key, 0) + cu * k
                if iw >= iv:
                    key = base - iw
                    out[key] = get(key, 0) + cm * k
        return {f: c for f, c in out.items() if c}

    return times_bar
