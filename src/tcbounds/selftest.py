"""Fuzzed invariant suites of the `selftest` command.

Each suite returns a SuiteResult; a failing confluence word is reported after
a greedy shrink (drop factors while the failure persists) so the printed
witness is small.  All randomness is seeded, so runs are reproducible.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, List, Sequence

from .algebra import (
    AlgebraElement,
    Presentation,
    monomial_str,
    poincare_table,
    stability_check,
    straighten_word,
    straighten_word_shuffled,
    verify_structure_document,
)
from .bounds import zero_divisor_cuplength
from .coeffs import QQ, PrimeField
from .tensor import TensorElement, TensorSquare, bar, diagonal_restriction, koszul_swap


@dataclass
class SuiteResult:
    name: str
    cases: int = 0
    failures: List[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def line(self) -> str:
        status = "ok" if self.passed else "FAIL"
        msg = f"{self.name:<28} {status}  ({self.cases} cases)"
        for f in self.failures[:3]:
            msg += f"\n    failing case: {f}"
        return msg


def random_homogeneous(pres: Presentation, weight: int, rng) -> AlgebraElement:
    basis = pres.basis(weight)
    if not basis:
        return AlgebraElement.zero(pres, QQ)
    terms = {}
    for _ in range(rng.randint(1, 3)):
        w = basis[rng.randrange(len(basis))]
        c = rng.choice([-3, -2, -1, 1, 2, 3])
        terms[w] = terms.get(w, QQ.zero) + c
    return AlgebraElement(pres, QQ, terms)


def random_tensor(pres: Presentation, rng) -> TensorElement:
    top = pres.top_weight
    terms = {}
    for _ in range(rng.randint(1, 3)):
        ku = rng.randint(0, top)
        kv = rng.randint(0, top)
        bu, bv = pres.basis(ku), pres.basis(kv)
        key = (bu[rng.randrange(len(bu))], bv[rng.randrange(len(bv))])
        c = rng.choice([-2, -1, 1, 2])
        terms[key] = terms.get(key, QQ.zero) + c
    return TensorElement(pres, QQ, terms)


def random_word(pres: Presentation, rng) -> List:
    gens = pres.generators()
    return [gens[rng.randrange(len(gens))] for _ in range(rng.randint(1, 5))]


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


def _sampled(name: str, seed: int, n_values, m_values, samples: int,
             case: Callable) -> SuiteResult:
    """Draw `samples` cases in each ring (n, m) from one rng seeded by `seed`.

    `case(pres, rng)` draws its elements and returns None when the invariant
    holds, else the failure text that follows "n=.. m=..".
    """
    res = SuiteResult(name)
    rng = random.Random(seed)
    for n in n_values:
        for m in m_values:
            pres = Presentation(n, m)
            for _ in range(samples):
                res.cases += 1
                failure = case(pres, rng)
                if failure is not None:
                    res.failures.append(f"n={n} m={m}{failure}")
    return res


def suite_associativity(samples: int, seed: int) -> SuiteResult:
    def case(pres, rng):
        wa = rng.randint(1, min(2, pres.top_weight))
        wb = rng.randint(1, min(2, pres.top_weight))
        wc = rng.randint(1, min(2, pres.top_weight))
        a = random_homogeneous(pres, wa, rng)
        b = random_homogeneous(pres, wb, rng)
        c = random_homogeneous(pres, wc, rng)
        if (a * b) * c != a * (b * c):
            return f": a={a!r} b={b!r} c={c!r}"
    return _sampled("associativity", seed, (2, 3, 4), (2, 3), samples, case)


def suite_graded_commutativity(samples: int, seed: int) -> SuiteResult:
    def case(pres, rng):
        wa = rng.randint(1, min(2, pres.top_weight))
        wb = rng.randint(1, min(2, pres.top_weight))
        a = random_homogeneous(pres, wa, rng)
        b = random_homogeneous(pres, wb, rng)
        sign = -1 if (wa * pres.degree) % 2 and (wb * pres.degree) % 2 else 1
        if a * b != sign * (b * a):
            return f": a={a!r} b={b!r}"
    return _sampled("graded commutativity", seed, (2, 3, 4), (2, 3), samples, case)


def suite_confluence(shuffles: int, seed: int) -> SuiteResult:
    """Randomized rule order must reproduce the deterministic normal form."""
    res = SuiteResult("straightening confluence")
    rng = random.Random(seed)
    for n in (3, 4):
        for parity in (0, 1):
            pres = Presentation(n, 2 if parity else 3)
            for _ in range(20):
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
                            f"n={n} parity={parity}: word {monomial_str(tuple(small))}"
                        )
                        break
    return res


def suite_rank_consistency() -> SuiteResult:
    res = SuiteResult("rank consistency")
    for n in range(1, 6):
        res.cases += 1
        try:
            poincare_table(n)
        except AssertionError as exc:  # the two rank counts disagree
            res.failures.append(str(exc))
    return res


def suite_nilpotence() -> SuiteResult:
    """Every product of n generators vanishes (top degree is (n-1)(m-1))."""
    from itertools import product as iproduct

    res = SuiteResult("top-degree nilpotence")
    for n in (2, 3):
        for m in (2, 3):
            pres = Presentation(n, m)
            gens = [AlgebraElement.generator(pres, QQ, i, j)
                    for i, j in pres.generators()]
            for combo in iproduct(gens, repeat=n):
                res.cases += 1
                out = combo[0]
                for g in combo[1:]:
                    out = out * g
                if not out.is_zero():
                    res.failures.append(f"n={n} m={m}: {' * '.join(map(repr, combo))}")
    return res


def suite_diagonal_homomorphism(seed: int) -> SuiteResult:
    def case(pres, rng):
        x = random_tensor(pres, rng)
        y = random_tensor(pres, rng)
        if diagonal_restriction(x * y) != diagonal_restriction(x) * diagonal_restriction(y):
            return f": x={x!r} y={y!r}"
    return _sampled("diagonal restriction", seed, (2, 3), (2, 3), 100, case)


def suite_bar_properties(seed: int) -> SuiteResult:
    """bar lands in the diagonal kernel and is additive."""
    def case(pres, rng):
        w = rng.randint(1, pres.top_weight)
        v = random_homogeneous(pres, w, rng)
        u = random_homogeneous(pres, w, rng)
        ok = v.is_zero() or diagonal_restriction(bar(v)).is_zero()
        if ok:
            ok = bar(v + u) == bar(v) + bar(u)
        if not ok:
            return f": v={v!r} u={u!r}"
    return _sampled("bar classes", seed, (2, 3), (2, 3, 4), 60, case)


def suite_koszul_involution(seed: int) -> SuiteResult:
    """The signed swap is an algebra map and squares to the identity."""
    def case(pres, rng):
        x = random_tensor(pres, rng)
        y = random_tensor(pres, rng)
        if koszul_swap(x * y) != koszul_swap(x) * koszul_swap(y):
            return f" (map): x={x!r} y={y!r}"
        if koszul_swap(koszul_swap(x)) != x:
            return f" (involution): x={x!r}"
    return _sampled("Koszul involution", seed, (2, 3), (2, 3), 100, case)


def suite_stability() -> SuiteResult:
    res = SuiteResult("even-m stability")
    for n in (2, 3, 4):
        for m in (4, 6):
            res.cases += 1
            if not stability_check(n, m):
                res.failures.append(f"structure constants differ: n={n}, m={m} vs m=2")
    return res


def suite_span_consistency() -> SuiteResult:
    """bar-span length equals the zero-divisor cup-length of the full ideal iteration.

    The zero-divisor lemma (the ideal is generated by the barred generators)
    makes them equal.  Reports read the cup-length off the witness
    coefficients (`zero_divisor_cuplength`), which must give the span's
    length over Q, Z_2 and Z_3.
    """
    res = SuiteResult("span consistency")
    for n, m in ((2, 3), (2, 4), (3, 2), (3, 3)):
        pres = Presentation(n, m)
        square = TensorSquare(pres, QQ)
        res.cases += 1
        if square.bar_span_length() != len(square.zero_divisor_power_profile()):
            res.failures.append(f"n={n} m={m}")
        for route_field in (QQ, PrimeField(2), PrimeField(3)):
            res.cases += 1
            span = TensorSquare(pres, route_field).bar_span_length()
            if zero_divisor_cuplength(pres, route_field) != span:
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


def run_all(seed: int, samples: int, shuffles: int) -> List[SuiteResult]:
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
