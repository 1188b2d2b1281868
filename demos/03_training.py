"""
Training phase: slabs, frequencies, and per-position search trees
=================================================================

Training looks at a handful of sample inputs, carves the x-axis into slabs,
then estimates where each input position tends to land and compiles a small
search tree per position.  Positions with predictable x-coordinates get
shallow trees; spread-out positions keep paying close to log n.
"""

import math

import numpy as np

from simax import (
    SeededRng,
    TrainingConfig,
    audit_forest,
    build_scenario,
    build_search_tree,
    build_slab_structure,
    collect_frequencies,
    entropy_proxy,
    sample_input,
    simulate_restricted_search,
    train_model,
)

n = 256
config = TrainingConfig()
print(f"n={n}: slab inputs={config.slab_rounds(n)}, "
      f"frequency rounds={config.tree_rounds(n)}, "
      f"leaf threshold={config.leaf_threshold(n)}")

# ---------------------------------------------------------------------------
# step 1: slab structure from ceil(log2 n) sample inputs

# staircase_line pins half the positions to fixed points and spreads the
# other half along a segment, so the per-position contrast is large
spec = build_scenario("staircase_line", n)
rng = SeededRng(11)
samples = [sample_input(spec, rng) for _ in range(config.slab_rounds(n))]
slabs = build_slab_structure(samples)
print(f"slabs: {slabs.num_slabs} leaf slabs from {len(samples)} pooled inputs")

# ---------------------------------------------------------------------------
# step 2: frequency table, one row per input position

# the same stream goes on to the tree rounds, so this is the table
# train_model(spec, config, seed=11) builds its trees from
freq = collect_frequencies(spec, slabs, rounds=config.tree_rounds(n), rng=rng)
row = freq.counts[0]
print(f"position 0 hits {np.count_nonzero(row)} distinct slabs over {freq.rounds} rounds")

# entropy of the empirical slab distribution, per position
ent = entropy_proxy(freq) + 0.0  # folds -0.0 into 0.0 for display
print(f"entropy: min={ent.min():.2f} bits, max={ent.max():.2f} bits, "
      f"mean={ent.mean():.2f} bits (log2 of slab count = {math.log2(slabs.num_slabs):.2f})")

# ---------------------------------------------------------------------------
# step 3: the full model, and what the trees buy

model = train_model(spec, config, seed=11)
forest = model.forest  # all n trees in flat columns, in level order; tree i's root is node i
rebuilt = build_search_tree(freq, config.leaf_threshold(n))
print("trees rebuilt from the step 2 table match the model's forest:", rebuilt == forest.split)
# one pass per depth audits all n trees against their training counts
audit = audit_forest(forest, freq, 2.0 / 3.0)
print(f"trees: {model.total_nodes()} nodes in one forest, per position min={audit.nodes.min()} max={audit.nodes.max()}, "
      f"worst-case search steps max={audit.steps.max()}")

# every child subtree carries at most 2/3 of its parent's training mass
print("all trees 2/3-mass-reducing:", bool(audit.reducing.all()))

# a restricted search stops as soon as its interval is pinned down; compare
# the mean step count against a search that must find the exact slab
i = int(np.argmin(ent))
weights = freq.counts[i].astype(float)
full = simulate_restricted_search(forest, i, None, weights, trials=64, rng=SeededRng(1))
print(f"most predictable position {i}: {full:.2f} mean steps to its exact slab")

j = int(np.argmax(ent))
weights = freq.counts[j].astype(float)
full = simulate_restricted_search(forest, j, None, weights, trials=64, rng=SeededRng(2))
print(f"least predictable position {j}: {full:.2f} mean steps to its exact slab")
