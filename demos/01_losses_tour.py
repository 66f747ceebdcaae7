"""Tour of the loss functions on a hand-sized batch.

Four points on a line, two identities: close enough that the hardest
positive/negative pairs matter, far enough that softer order statistics
change the answer.
"""

import numpy as np

from progmetric import (
    HyperParams,
    composite_loss,
    gbh_loss,
    gbh_terms,
    pairwise_distances,
)
from progmetric.losses import batch_hard_grad

x = np.array([[0.0], [1.0], [1.5], [2.5]])
labels = np.array([0, 0, 1, 1])

print("embeddings:", x.ravel().tolist(), "labels:", labels.tolist())
print("\npairwise distances:")
print(pairwise_distances(x))

print("\nbatch-hard loss (hinge, m=0.2):", batch_hard_grad(x, labels, 0.2)[0])

print("\nT terms for the order-statistic loss (per anchor):")
for k in (1, 2):
    for p in (1, 2):
        d = pairwise_distances(x)
        print(f"  k={k} p={p}: {gbh_terms(d, labels, k, p)}")

print("\nsoftplus loss at a few hardness settings:")
for k, p in [(1, 1), (1, 2), (2, 1)]:
    w = HyperParams(lam=1.0, margin=0.2, k=k, p=p)
    print(f"  k={k} p={p}: {gbh_loss(x, labels, w):.6f}")

# composite = cross-entropy on logits + lambda * triplet term
logits = np.array([[2.0, 0.1], [1.5, 0.2], [0.1, 1.8], [0.0, 2.2]])
w = HyperParams(lam=1.0, margin=0.2, k=1, p=1)
b = composite_loss(x, logits, labels, w)
print(f"\ncomposite: ce={b.softmax_term:.4f} triplet={b.gbh_term:.4f} "
      f"total={b.total:.4f}")
