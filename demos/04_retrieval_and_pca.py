"""Train a small embedding model, then score retrieval with CMC and mAP.

Also shows PCA post-processing: projecting to the full embedding dimension
leaves the metrics unchanged (it is just a rotation), while an aggressive
reduction trades a little accuracy for smaller vectors.
"""

import numpy as np

from progmetric import HyperParams, evaluate, pca_reduce, run_fixed
from progmetric.evaluation import QueryGallerySplit, pca_apply
from progmetric.model import ModelConfig, OptimizerConfig, embed
from progmetric.sampler import BatchSpec
from progmetric.synthetic import (
    SynthSpec, generate, query_gallery, split, train_partition,
)

ds = generate(SynthSpec(n_identities=12, samples_per_identity=10, dim=12,
                        center_scale=8.0, intra_spread=1.0,
                        outlier_fraction=0.1, seed=5))
ds = split(ds, query_per_identity=3, rng=np.random.default_rng(0))
x, y = train_partition(ds)

model_cfg = ModelConfig(d_in=12, hidden=24, embed_dim=12)
result = run_fixed(x, y, "composite_fixed", HyperParams(1.0, 0.2, 1, 2),
                   n_epochs=60, model_cfg=model_cfg,
                   opt_cfg=OptimizerConfig(), batch_spec=BatchSpec(6, 3),
                   seed=0)

qg = query_gallery(ds)
q_emb = embed(result.final_params, qg.query_embeddings)
g_emb = embed(result.final_params, qg.gallery_embeddings)


def score(q, g, label):
    m = evaluate(QueryGallerySplit(q, qg.query_labels, g, qg.gallery_labels))
    print(f"{label:<24} rank1={m.rank1:.3f} map={m.map:.3f} "
          f"cmc[:5]={np.round(m.cmc[:5], 3).tolist()}")


score(q_emb, g_emb, "raw embeddings")

for dim in (12, 4, 2):
    pca = pca_reduce(np.vstack([g_emb, q_emb]), dim)
    score(pca_apply(pca, q_emb), pca_apply(pca, g_emb), f"pca to {dim} dims")

print("\n(the 12-dim projection matches the raw metrics: an orthogonal basis "
      "change cannot alter distances)")
