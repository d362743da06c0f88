"""Verification protocol: can embedding distance tell identities apart?

Builds genuine pairs (same identity) and impostor pairs (different identity)
from a clustered corpus, then sweeps every candidate threshold exhaustively
and reports the best achievable accuracy. A random-label control shows the
protocol has no built-in optimism beyond the expected small-sample lift.
"""

import numpy as np

from preimage import (
    DatasetSpec,
    EmbedderInfo,
    angular_distance,
    generate_dataset,
    make_embedder,
    verification_accuracy,
)


def main():
    spec = DatasetSpec(distribution="clustered-identities", input_dim=4,
                       n_samples=2000, seed=0)
    embedder = make_embedder(
        EmbedderInfo(name="frozen-mlp", input_dim=4, output_dim=16, seed=0))
    ds = generate_dataset(spec, embedder)

    identity = ds.metadata["identity"]
    by_identity = {int(i): ds.y[identity == i] for i in np.unique(identity)}
    print(f"corpus: {len(ds.y)} samples across {len(by_identity)} identities")

    rng = np.random.default_rng(7)
    pairs = []
    idents = sorted(by_identity)
    for _ in range(500):
        i = idents[rng.integers(len(idents))]
        a, b = rng.choice(len(by_identity[i]), size=2, replace=False)
        pairs.append((angular_distance(by_identity[i][a], by_identity[i][b]), True))
        i, j = rng.choice(len(idents), size=2, replace=False)
        a = rng.integers(len(by_identity[idents[i]]))
        b = rng.integers(len(by_identity[idents[j]]))
        pairs.append((angular_distance(by_identity[idents[i]][a],
                                       by_identity[idents[j]][b]), False))

    genuine = [d for d, same in pairs if same]
    impostor = [d for d, same in pairs if not same]
    print(f"genuine pairs:  mean angular distance {np.mean(genuine):.4f}")
    print(f"impostor pairs: mean angular distance {np.mean(impostor):.4f}")

    res = verification_accuracy(pairs)
    print(f"best threshold {res.threshold:.4f} separates them with accuracy "
          f"{res.accuracy:.3f} over {res.n_pairs} pairs")

    shuffled = [(d, bool(flip)) for (d, _), flip
                in zip(pairs, np.random.default_rng(1).random(len(pairs)) < 0.5)]
    control = verification_accuracy(shuffled)
    print(f"random-label control: accuracy {control.accuracy:.3f} "
          "(chance, as it should be)")


if __name__ == "__main__":
    main()
