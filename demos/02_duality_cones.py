"""Dualize Markov kernels through the zeta/Moebius matrices and certify
positivity of the dual via cone membership."""

import random
from fractions import Fraction

from moebius_dual import (
    DualityVariant,
    Kernel,
    RationalMatrix,
    cone_membership,
    h_dual,
    positivity_certificate,
    representing_measure,
    strong_condition_check,
    subset_lattice,
)

F = Fraction


def main():
    lat = subset_lattice(2)
    n = len(lat.poset)

    print("=== The dual of the uniform kernel under Z' ===")
    p = Kernel.of(RationalMatrix.from_function(n, n, lambda i, j: F(1, n)))
    h, h_inv = DualityVariant.ZETA_TRANSPOSE.h_pair(lat.pair)  # Z' and M', no elimination
    q = h_dual(p, h, h_inv)  # solves H Q' = P H exactly
    print("Q =")
    for r in range(n):
        print("  ", [str(x) for x in q.row(r)])

    print("\n=== Cone membership with explicit representing measures ===")
    g = [F(2) ** bin(m).count("1") for m in lat.poset.elements]
    rep = cone_membership(g, lat.pair, transposed=True)
    print("g(J) = 2^|J| lies in the transposed cone:", rep.member)
    weights = lat.pair.moebius_transpose.apply(g)  # nonnegative since g is in the transposed cone
    print("its nonnegative representing measure on subsets:",
          {lat.label(m): str(w) for m, w in zip(lat.poset.elements, weights)})
    signed = representing_measure(g, lat.pair)
    print("plain-cone decomposition needs signed weights:",
          {lat.label(m): str(w) for m, w in signed.weights.items()})
    rep_plain = cone_membership(g, lat.pair, transposed=False)
    print("...but not in the plain cone:", rep_plain.member,
          "(first negative coordinate at index", rep_plain.first_negative, ")")

    print("\n=== Positivity certificates on random kernels ===")
    rng = random.Random(42)
    hits = {True: 0, False: 0}
    for _ in range(50):
        m = Kernel.of(RationalMatrix.from_function(
            n, n, lambda i, j: F(rng.randrange(0, 5), 4)))
        cert = positivity_certificate(m, lat.pair, DualityVariant.ZETA)
        hits[cert.condition_holds] += 1
        assert cert.condition_holds == cert.q_nonnegative
    print(f"verdicts over 50 random kernels: {hits[True]} positive, {hits[False]} not;")
    print("cone condition agreed with direct nonnegativity of Q every time")
    cert = positivity_certificate(p, lat.pair, DualityVariant.ZETA)
    print("the uniform kernel itself certifies positive:",
          cert.condition_holds, "and indeed Q >= 0:", cert.q_nonnegative)

    print("\n=== Strong condition: cone-valued columns force monotone duals ===")
    import numpy as np
    z = lat.pair.zeta.array()
    cols = [list(z @ np.array([F(rng.randrange(0, 3)) for _ in range(n)], dtype=object))
            for _ in range(n)]
    mat = RationalMatrix.from_function(n, n, lambda i, j: cols[j][i])
    rep = strong_condition_check(Kernel.of(mat), lat.pair, DualityVariant.ZETA)
    print("condition holds:", rep.condition_holds,
          "| dual is", DualityVariant.ZETA.monotonicity, "->", rep.monotone)


if __name__ == "__main__":
    main()
