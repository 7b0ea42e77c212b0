"""
Why the selection-norm space is genuinely asymmetric
====================================================

Reversing a vector can shrink its selection norm, and along the block
witnesses the forward-to-reversed quotient grows without bound.  The same
witnesses separate the rearranged-norm space from the selection-norm space:
the rearranged norm of the reversed witness stays large while its selection
norm stays below the window supremum.  Both quotients clear r/6.
"""

from seqspace import (
    PowerWeights,
    build_witness,
    find_block_lengths,
    inclusion_gap,
    symmetric_defect,
)

fam = PowerWeights(0.5)

print("r   defect     inclusion gap   floor r/6")
d = []
for r in range(1, 6):
    d = find_block_lengths(fam, r, initial=d)
    f = build_witness(fam, d)
    defect, forward, backward = symmetric_defect(f, fam, 1.0, f.support)
    gap = inclusion_gap(fam, 1.0, r)
    print(f"{r}   {defect:<10.6f} {gap:<15.6f} {r / 6:.6f}")

# a closer look at r = 3: the reversed vector must spend its large entries
# on small weights, or skip most of the support
d = find_block_lengths(fam, 3)
f = build_witness(fam, d)
defect, forward, backward = symmetric_defect(f, fam, 1.0, f.support)
print(f"\nr = 3 blocks {d}: forward norm {forward.value:.6f}, "
      f"reversed {backward.value:.6f}")
print(f"the reversed selection keeps {backward.selector.size} of "
      f"{f.support} indices")

# at p > 1 the vector is f^(1/p), whose norms' p-th powers are again A and B,
# so the defect is the same ratio A / B for every p
defect_p, _, _ = symmetric_defect(f, fam, 2.0, f.support)
print(f"\nsame blocks at p = 2: defect {defect_p:.6f}")
