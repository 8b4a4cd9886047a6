"""Exchangeable offspring models: forward gene-spread and backward ancestry
chains, their exact duality, hypergeometric coarse-graining, multi-allelic
extension, and a Monte Carlo check of the coarse duality.  The haploid model
is the multi-allelic model with T = 1 type."""

from fractions import Fraction

from moebius_dual import (
    coarsen_multiallelic,
    exact_coarse_duality_value,
    monte_carlo_duality,
    moran_law,
    multiallelic_kernels,
    wright_fisher_law,
)

F = Fraction


def main():
    print("=== Wright-Fisher on N = 3 individuals ===")
    law = wright_fisher_law(3)
    hap = multiallelic_kernels(law, 1)  # one type: states are carrier sets
    print("forward kernel is stochastic:", hap.p_ext.is_stochastic)
    print("backward (ancestral) kernel is stochastic:", hap.q.is_stochastic)
    print("transpose-zeta duality Z' Q' = P Z' holds (checked while building",
          "the kernels: the counted Q equals the dual (M' P Z')')")

    print("\n=== Coarse-graining by cardinality ===")
    mc = coarsen_multiallelic(hap)
    print("coarse forward chain (allele-count frequencies):")
    for r in range(4):
        print("  ", [str(x) for x in mc.p_coarse.matrix.row(r)])
    print("hypergeometric duality matrix H(i, j) = C(i,j)/C(N,j):")
    for r in range(4):
        print("  ", [str(x) for x in mc.h_coarse_hat.row(r)])
    print("coarse ancestral chain (block-counting, stochastic):")
    for r in range(4):
        print("  ", [str(x) for x in mc.q_coarse_hh.matrix.row(r)])

    print("\n=== Moran model gives the same structure ===")
    mc_mo = coarsen_multiallelic(multiallelic_kernels(moran_law(3), 1))
    print("Moran coarse ancestral chain:")
    for r in range(4):
        print("  ", [str(x) for x in mc_mo.q_coarse_hh.matrix.row(r)])

    print("\n=== Multi-allelic extension (T = 3 types, WF N = 3) ===")
    ma = multiallelic_kernels(law, 3)
    print("partial type-assignment states:", len(ma.pair.poset))
    print("extended forward kernel stochastic:", ma.p_ext.is_stochastic)
    st = ma.pair.poset.index[(1, 2, 4)]
    print("backward kernel is substochastic: three singleton lineages keep")
    print("  distinct ancestors only when all parents differ;",
          f"row mass = {sum(ma.q.matrix.row(st), F(0))}, defect = {ma.defect[st]}")
    mc = coarsen_multiallelic(ma)
    print("coarse (type-count) duality verified; coarse dual substochastic:",
          mc.q_coarse_hh.is_substochastic)

    print("\n=== Monte Carlo check of the coarse duality ===")
    res = monte_carlo_duality(wright_fisher_law(4), a=0b0011, b=0b0001,
                              steps=2, reps=20000, seed=7)
    exact = float(exact_coarse_duality_value(wright_fisher_law(4), 2, 1, 2))
    print(f"exact common value            : {exact:.6f}")
    print(f"forward estimate  (mean +- se): {res.forward_mean:.6f} +- {res.forward_stderr:.6f}")
    print(f"backward estimate (mean +- se): {res.backward_mean:.6f} +- {res.backward_stderr:.6f}")


if __name__ == "__main__":
    main()
