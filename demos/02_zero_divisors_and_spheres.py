"""Zero-divisors, bar classes, and the sphere sanity check.

Topological complexity is bounded from below by cup-lengths of zero-divisors:
classes of the product space X x X that vanish on the diagonal.  Every
cohomology class v gives one for free, bar(v) = v (x) 1 - 1 (x) v, and for a
sphere the single bar class already decides everything:

    bar(e)^2 = -2 e (x) e   when |e| is even  (so it survives over Q),
    bar(e)^2 = 0            when |e| is odd.

F(R^m, 2) deformation retracts to the sphere S^{m-1}, so n=2 runs the whole
pipeline on spheres: TC(S^even) = 3 and TC(S^odd) = 2.

The zero-divisor ideal is generated by the bar classes of the ring
generators, so its cup-length is the length of the longest nonzero product of
barred generators: the bar-span length.

Run:  python demos/02_zero_divisors_and_spheres.py
"""

from tcbounds import (
    AlgebraElement,
    Presentation,
    PrimeField,
    QQ,
    TensorSquare,
    bar,
    diagonal_restriction,
)

# ---------------------------------------------------------------------------
# bar classes vanish on the diagonal by construction
# ---------------------------------------------------------------------------

pres = Presentation(n=2, m=3)          # F(R^3, 2) ~ S^2, generator degree 2
e = AlgebraElement.generator(pres, QQ, 1, 2)
b = bar(e)
print("bar(e)       =", b)
print("on diagonal  =", diagonal_restriction(b))
assert diagonal_restriction(b).is_zero()

# The parity dichotomy in one line each:
print("\nbar(e)^2 for even |e| (m=3):", b * b)
odd = bar(AlgebraElement.generator(Presentation(2, 4), QQ, 1, 2))
print("bar(e)^2 for odd  |e| (m=4):", odd * odd)

# ---------------------------------------------------------------------------
# the zero-divisor ideal, degree by degree
# ---------------------------------------------------------------------------

print("\nzero-divisor subspaces for S^2 (n=2, m=3):")
sq = TensorSquare(pres, QQ)
for w in (1, 2):
    ker = sq.diagonal_kernel(w)  # the zero-divisors of weight w
    print(f"  degree {w * pres.degree}: dimension {ker.dim} of ambient {sq.dim(w)}")
assert sq.diagonal_kernel(1).contains(sq.coords(b))

# ---------------------------------------------------------------------------
# cup-lengths decide TC for spheres
# ---------------------------------------------------------------------------

print("\ncup-lengths over Q (TC >= cuplength + 1):")
for m in (3, 4, 5, 6):
    sq = TensorSquare(Presentation(2, m), QQ)
    zcl = sq.bar_span_length()
    print(f"  S^{m-1}: cuplength {zcl}  ->  TC >= {zcl + 1}")

# Over Z_2 the factor -2 kills bar(e)^2 and the even-sphere bound collapses;
# that is why the certification defaults to rational coefficients.
sq2 = TensorSquare(Presentation(2, 3), PrimeField(2))
print("\nsame computation for S^2 over Z_2:", sq2.bar_span_length(),
      " (the rational answer was 2)")
