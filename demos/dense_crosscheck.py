"""Cross-check every symbolic verdict against dense truncations.

The symbolic layer never truncates; the numerical layer only ever sees
finite windows.  Agreement between the two is the running correctness
argument for the whole package, so this demo exercises it three ways.
"""

import numpy as np

import qrepeat.opalgebra as oa
from qrepeat import (TruncationWindow, build_example_family,
                     build_nonrepeatable_sibling,
                     check_repeatability_numerical, dense_oracle,
                     finite_dim_corollary_suite, window_for)

example = build_example_family(2, (0.5, 0.5))
sibling = build_nonrepeatable_sibling(2, (0.5, 0.5))

# 1. windows: pick a truncation that provably captures all columns < 8
m1 = example.operator(1)
window = window_for(m1, 8)
mat = dense_oracle(m1, window)
print(f"window for columns < 8 has dimension {window.dim}")
print(f"dense realization is {mat.shape}, column norms "
      f"{np.round(np.linalg.norm(mat[:, :4], axis=0), 3)}")

# 2. sampled conditional ratios: exact zeros for the repeatable family,
#    an order-one deviation for the sibling with the same POVM
dev_good = max(check_repeatability_numerical(example, trials=50).values())
dev_bad = max(check_repeatability_numerical(sibling, trials=50).values())
print(f"\nmax conditional-ratio deviation, example: {dev_good}")
print(f"max conditional-ratio deviation, sibling: {dev_bad:.3f}")

# 3. the finite-dimensional corollary: random dense instruments, each
#    decided by the exact certifier as a block of point terms
ok = all(finite_dim_corollary_suite(dim, seed) for dim in (2, 3, 4, 5)
         for seed in range(3))
print(f"\nfinite-dimensional corollary suite: {'all pass' if ok else 'FAILED'}")

# symbolic composition agrees with matrix products once the window has
# grown enough to hold the intermediate columns
hop1 = window_for(m1, 8)
hop2 = window_for(m1, hop1.dim)
win = TruncationWindow(hop2.dim, 8)
lhs = dense_oracle(oa.compose(m1, m1), win)
rhs = dense_oracle(m1, TruncationWindow(hop2.dim, hop1.dim)) @ dense_oracle(m1, win)
print(f"compose vs matmul max difference: "
      f"{np.max(np.abs(lhs[:, :8] - rhs[:, :8]))}")

# and the certified annihilation M_2 M_1 = 0 is visible densely too
m2 = example.operator(2)
pair = dense_oracle(m2, TruncationWindow(hop2.dim, hop1.dim)) @ dense_oracle(m1, win)
print(f"M_2 M_1 dense window is identically zero: {not pair[:, :8].any()}")
