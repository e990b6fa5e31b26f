"""Fuzzed invariant suites shared by the CLI selftest command and the tests.

Each suite returns a SuiteResult; a failing case is reported after a greedy
shrink (drop factors/terms while the failure persists) so the printed witness
is small.  All randomness is seeded, so runs are reproducible.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field as dataclass_field
from typing import Callable, List, Sequence

from .algebra import (
    AlgebraElement,
    Presentation,
    monomial_str,
    poincare_table,
    rank_polynomial,
    stability_check,
    straighten_word,
    straighten_word_shuffled,
    verify_structure_document,
)
from .coeffs import QQ, PrimeField
from .tensor import TensorElement, TensorSquare, bar, diagonal_restriction, koszul_swap


@dataclass
class SuiteResult:
    name: str
    cases: int = 0
    failures: List[str] = dataclass_field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def line(self) -> str:
        status = "ok" if self.passed else "FAIL"
        msg = f"{self.name:<28} {status}  ({self.cases} cases)"
        for f in self.failures[:3]:
            msg += f"\n    failing case: {f}"
        return msg


def random_homogeneous(pres: Presentation, field, weight: int, rng,
                       max_terms: int = 3) -> AlgebraElement:
    basis = pres.basis(weight)
    if not basis:
        return AlgebraElement.zero(pres, field)
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        w = basis[rng.randrange(len(basis))]
        c = rng.choice([-3, -2, -1, 1, 2, 3])
        terms[w] = field.add(terms.get(w, field.zero), field.coerce(c))
    return AlgebraElement(pres, field, terms)


def random_tensor(pres: Presentation, field, rng, max_terms: int = 3) -> TensorElement:
    top = pres.top_weight
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        ku = rng.randint(0, top)
        kv = rng.randint(0, top)
        bu, bv = pres.basis(ku), pres.basis(kv)
        key = (bu[rng.randrange(len(bu))], bv[rng.randrange(len(bv))])
        c = rng.choice([-2, -1, 1, 2])
        terms[key] = field.add(terms.get(key, field.zero), field.coerce(c))
    return TensorElement(pres, field, terms)


def random_word(pres: Presentation, rng, max_len: int = 5) -> List:
    gens = pres.generators()
    return [gens[rng.randrange(len(gens))] for _ in range(rng.randint(1, max_len))]


def _shrink_word(word: Sequence, still_fails: Callable[[Sequence], bool]) -> Sequence:
    w = list(word)
    changed = True
    while changed and len(w) > 1:
        changed = False
        for i in range(len(w)):
            cand = w[:i] + w[i + 1:]
            if still_fails(cand):
                w = cand
                changed = True
                break
    return w


def _word_str(word) -> str:
    return monomial_str(tuple(word))


def suite_associativity(n_values=(2, 3, 4), m_values=(2, 3), samples=200,
                        seed=0, field=QQ) -> SuiteResult:
    res = SuiteResult("associativity")
    rng = random.Random(seed)
    for n in n_values:
        for m in m_values:
            pres = Presentation(n, m)
            for _ in range(samples):
                wa = rng.randint(1, max(1, min(2, pres.top_weight or 1)))
                wb = rng.randint(1, max(1, min(2, pres.top_weight or 1)))
                wc = rng.randint(1, max(1, min(2, pres.top_weight or 1)))
                a = random_homogeneous(pres, field, wa, rng)
                b = random_homogeneous(pres, field, wb, rng)
                c = random_homogeneous(pres, field, wc, rng)
                res.cases += 1
                if (a * b) * c != a * (b * c):
                    res.failures.append(f"n={n} m={m}: a={a!r} b={b!r} c={c!r}")
    return res


def suite_graded_commutativity(n_values=(2, 3, 4), m_values=(2, 3), samples=200,
                               seed=1, field=QQ) -> SuiteResult:
    res = SuiteResult("graded commutativity")
    rng = random.Random(seed)
    for n in n_values:
        for m in m_values:
            pres = Presentation(n, m)
            if pres.top_weight == 0:
                continue
            for _ in range(samples):
                wa = rng.randint(1, min(2, pres.top_weight))
                wb = rng.randint(1, min(2, pres.top_weight))
                a = random_homogeneous(pres, field, wa, rng)
                b = random_homogeneous(pres, field, wb, rng)
                res.cases += 1
                sign = -1 if (wa * pres.degree) % 2 and (wb * pres.degree) % 2 else 1
                if a * b != sign * (b * a):
                    res.failures.append(f"n={n} m={m}: a={a!r} b={b!r}")
    return res


def suite_confluence(n_values=(3, 4), parities=(0, 1), words_per_case=20,
                     shuffles=100, seed=2) -> SuiteResult:
    """Randomized rule order must reproduce the deterministic normal form."""
    res = SuiteResult("straightening confluence")
    rng = random.Random(seed)
    for n in n_values:
        for parity in parities:
            pres = Presentation(n, 2 if parity else 3)
            for _ in range(words_per_case):
                word = random_word(pres, rng)
                expected = straighten_word(word, parity)
                for _ in range(shuffles):
                    res.cases += 1
                    got = straighten_word_shuffled(word, parity, rng)
                    if got != expected:
                        def fails(w):
                            return straighten_word_shuffled(
                                list(w), parity, random.Random(99)
                            ) != straighten_word(w, parity)
                        small = _shrink_word(word, fails) if fails(word) else word
                        res.failures.append(
                            f"n={n} parity={parity}: word {_word_str(small)}"
                        )
                        break
    return res


def suite_rank_consistency(n_max=5) -> SuiteResult:
    res = SuiteResult("rank consistency")
    for n in range(1, n_max + 1):
        res.cases += 1
        table = poincare_table(n)  # raises on any mismatch
        if table != rank_polynomial(n):
            res.failures.append(f"n={n}")
    return res


def suite_nilpotence(n_values=(2, 3), m_values=(2, 3), field=QQ) -> SuiteResult:
    """Every product of n generators vanishes (top degree is (n-1)(m-1))."""
    from itertools import product as iproduct

    res = SuiteResult("top-degree nilpotence")
    for n in n_values:
        for m in m_values:
            pres = Presentation(n, m)
            gens = [AlgebraElement.generator(pres, field, i, j)
                    for i, j in pres.generators()]
            for combo in iproduct(gens, repeat=n):
                res.cases += 1
                out = combo[0]
                for g in combo[1:]:
                    out = out * g
                if not out.is_zero():
                    res.failures.append(f"n={n} m={m}: {' * '.join(map(repr, combo))}")
    return res


def suite_diagonal_homomorphism(n_values=(2, 3), m_values=(2, 3), samples=100,
                                seed=3, field=QQ) -> SuiteResult:
    res = SuiteResult("diagonal restriction")
    rng = random.Random(seed)
    for n in n_values:
        for m in m_values:
            pres = Presentation(n, m)
            for _ in range(samples):
                x = random_tensor(pres, field, rng)
                y = random_tensor(pres, field, rng)
                res.cases += 1
                if diagonal_restriction(x * y) != diagonal_restriction(x) * diagonal_restriction(y):
                    res.failures.append(f"n={n} m={m}: x={x!r} y={y!r}")
    return res


def suite_bar_properties(n_values=(2, 3), m_values=(2, 3, 4), samples=60,
                         seed=4, field=QQ) -> SuiteResult:
    """bar lands in the diagonal kernel and is additive."""
    res = SuiteResult("bar classes")
    rng = random.Random(seed)
    for n in n_values:
        for m in m_values:
            pres = Presentation(n, m)
            if pres.top_weight == 0:
                continue
            for _ in range(samples):
                w = rng.randint(1, pres.top_weight)
                v = random_homogeneous(pres, field, w, rng)
                u = random_homogeneous(pres, field, w, rng)
                res.cases += 1
                ok = v.is_zero() or diagonal_restriction(bar(v)).is_zero()
                if ok:
                    ok = bar(v + u) == bar(v) + bar(u)
                if not ok:
                    res.failures.append(f"n={n} m={m}: v={v!r} u={u!r}")
    return res


def suite_koszul_involution(n_values=(2, 3), m_values=(2, 3), samples=100,
                            seed=5, field=QQ) -> SuiteResult:
    """The signed swap is an algebra map and squares to the identity."""
    res = SuiteResult("Koszul involution")
    rng = random.Random(seed)
    for n in n_values:
        for m in m_values:
            pres = Presentation(n, m)
            for _ in range(samples):
                x = random_tensor(pres, field, rng)
                y = random_tensor(pres, field, rng)
                res.cases += 1
                if koszul_swap(x * y) != koszul_swap(x) * koszul_swap(y):
                    res.failures.append(f"n={n} m={m} (map): x={x!r} y={y!r}")
                    continue
                if koszul_swap(koszul_swap(x)) != x:
                    res.failures.append(f"n={n} m={m} (involution): x={x!r}")
    return res


def suite_stability(n_values=(2, 3, 4), m_values=(4, 6)) -> SuiteResult:
    res = SuiteResult("even-m stability")
    for n in n_values:
        for m in m_values:
            res.cases += 1
            if not stability_check(n, m):
                res.failures.append(f"structure constants differ: n={n}, m={m} vs m=2")
    return res


def suite_span_consistency(cases=((2, 3), (2, 4), (3, 2), (3, 3)), field=QQ) -> SuiteResult:
    """bar-span length equals the zero-divisor cup-length of the full ideal iteration.

    The zero-divisor lemma (the ideal is generated by the barred generators)
    makes them equal.  Reports read the cup-length off the certified route,
    which must give the span's length over Q, Z_2 and Z_3.
    """
    res = SuiteResult("span consistency")
    for n, m in cases:
        pres = Presentation(n, m)
        square = TensorSquare(pres, field)
        res.cases += 1
        if square.bar_span_length() != len(square.zero_divisor_power_profile()):
            res.failures.append(f"n={n} m={m}")
        for route_field in (QQ, PrimeField(2), PrimeField(3)):
            square = TensorSquare(pres, route_field)
            res.cases += 1
            if square.bar_span_length_certified() != square.bar_span_length():
                res.failures.append(f"n={n} m={m} route over {route_field.describe()}")
    return res


def suite_cache(doc) -> SuiteResult:
    """Full re-verification of a parsed structure-constant document, in its own ring."""
    res = SuiteResult("structure-constant cache")
    try:
        # a document that is not an object is rejected before its ring is read
        pres = Presentation(int(doc["n"]), int(doc["m"])) if isinstance(doc, dict) else None
        res.cases = verify_structure_document(doc, pres, samples=None)
    except (ValueError, KeyError, TypeError) as exc:  # CacheError is a ValueError
        res.failures.append(str(exc))
    return res


def run_all(seed: int = 0, samples: int = 200, shuffles: int = 100) -> List[SuiteResult]:
    return [
        suite_associativity(samples=samples, seed=seed),
        suite_graded_commutativity(samples=samples, seed=seed + 1),
        suite_confluence(shuffles=shuffles, seed=seed + 2),
        suite_rank_consistency(),
        suite_nilpotence(),
        suite_diagonal_homomorphism(seed=seed + 3),
        suite_bar_properties(seed=seed + 4),
        suite_koszul_involution(seed=seed + 5),
        suite_stability(),
        suite_span_consistency(),
    ]
