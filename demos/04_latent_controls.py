"""Geometry tools for the embedding space: slerp, PCA, semantic directions.

Embeddings from the frozen random MLP live on the unit sphere, so the right
interpolation is spherical; principal axes summarize where a corpus of
embeddings actually varies; and mean-difference directions extracted from
labeled splits ("upper half-plane or not", "large radius or small") give
controllable traversal handles, all without touching the embedder again.
"""

import numpy as np

from preimage import (
    DatasetSpec,
    EmbedderInfo,
    custom_direction,
    fit_pca,
    generate_dataset,
    make_embedder,
    mean_norm,
    percentile_split,
    project_first_k,
    slerp,
    traverse,
)


def main():
    spec = DatasetSpec(distribution="annulus", input_dim=2, n_samples=2000, seed=0)
    embedder = make_embedder(
        EmbedderInfo(name="frozen-mlp", input_dim=2, output_dim=8, seed=0))
    ds = generate_dataset(spec, embedder)
    ys = ds.y
    print(f"corpus: {len(ys)} unit-norm embeddings in {ys.shape[1]}-D "
          f"(mean norm {mean_norm(ys):.3f})")

    print("\n-- spherical interpolation between two group means")
    upper = ys[ds.metadata["upper"] == 1.0]
    lower = ys[ds.metadata["upper"] == 0.0]
    m1 = upper.mean(axis=0)
    m2 = lower.mean(axis=0)
    m1 /= np.linalg.norm(m1)
    m2 /= np.linalg.norm(m2)
    angle = np.degrees(np.arccos(np.clip(m1 @ m2, -1, 1)))
    print(f"   endpoints {angle:.1f} degrees apart; norms along the path:",
          " ".join(f"{np.linalg.norm(slerp(m1, m2, t)):.6f}"
                   for t in (0.0, 0.25, 0.5, 0.75, 1.0)))
    print("   (linear interpolation would dip inside the sphere)")

    print("\n-- principal axes of the embedding corpus")
    basis = fit_pca(ys)
    spectrum = basis.eigenvalues / basis.eigenvalues.sum()
    print("   variance fractions:", " ".join(f"{v:.3f}" for v in spectrum))
    recon = project_first_k(ys[0], basis, 8)
    print(f"   full-rank reconstruction error {np.max(np.abs(recon - ys[0])):.2e}")
    for k in (1, 2, 4):
        err = np.linalg.norm(project_first_k(ys[0], basis, k) - ys[0])
        print(f"   keeping {k} axes: reconstruction error {err:.4f}")

    print("\n-- semantic directions from labeled splits")
    lo, hi = percentile_split(ds.metadata["upper"])
    d_upper = custom_direction(ys[lo], ys[hi], label="upper", provenance="binary-split")
    lo, hi = percentile_split(ds.metadata["radius"])
    d_radius = custom_direction(ys[lo], ys[hi], label="radius",
                                provenance="percentile-split")
    overlap = abs(float(d_upper.vector @ d_radius.vector))
    print(f"   'upper' and 'radius' directions overlap |cos| = {overlap:.3f} "
          "(near-independent controls)")

    y0 = ys[0]
    scale = mean_norm(ys)
    moved = traverse(y0, d_radius, 0.5, scale)
    gained = float((moved - y0) @ d_radius.vector)
    print(f"   traverse(+0.5) along 'radius' moves the embedding {gained:.3f} "
          "units along that axis and leaves the rest untouched "
          f"(residual {np.linalg.norm((moved - y0) - gained * d_radius.vector):.1e})")


if __name__ == "__main__":
    main()
