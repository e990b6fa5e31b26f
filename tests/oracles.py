"""Test oracles and seeded random draws, imported by the tests (pytest does not collect this file).

`straighten_word_shuffled` is the confluence oracle of `straighten_word`: it
applies the same local rules in whatever order the rng picks.  The random
helpers draw ring elements, tensors and generator words; their draws are
fixed, so a seeded test sees the same cases on every run.
"""

from tcbounds.algebra import AlgebraElement, _check_edge
from tcbounds.coeffs import QQ
from tcbounds.tensor import TensorElement


def straighten_word_shuffled(word, parity, rng):
    """Like `straighten_word`, but applies whichever local rule `rng` picks.

    Intermediate terms are never combined, so the result only depends on the
    rewrite rules themselves; agreement with the deterministic routine over
    many shuffles is the confluence check.
    """
    terms = [(1, [_check_edge(e) for e in word])]
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
    out = {}
    for coeff, w in terms:
        key = tuple(w)
        total = out.get(key, 0) + coeff
        if total:
            out[key] = total
        else:
            del out[key]
    return out


def random_homogeneous(pres, weight, rng):
    """A rational class of one weight: one to three basis words, coefficients in +-1..3."""
    basis = pres.basis(weight)
    if not basis:
        return AlgebraElement.zero(pres, QQ)
    terms = {}
    for _ in range(rng.randint(1, 3)):
        w = basis[rng.randrange(len(basis))]
        c = rng.choice([-3, -2, -1, 1, 2, 3])
        terms[w] = terms.get(w, QQ.zero) + c
    return AlgebraElement(pres, QQ, terms)


def random_tensor(pres, rng):
    """A rational tensor: one to three basis pairs of any weights, coefficients in +-1..2."""
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


def random_word(pres, rng):
    """A word of one to five generators, repeats allowed."""
    gens = pres.generators()
    return [gens[rng.randrange(len(gens))] for _ in range(rng.randint(1, 5))]
