"""The per-realization seeding that channels.seed_state and
channels.generators replaced, kept as their reference: one
np.random.SeedSequence per seed, and one np.random.default_rng per
realization."""

import numpy as np


def mix_seed(*parts):
    """trainer.mix_seed, one SeedSequence per index of an index array."""
    *head, last = parts
    if np.ndim(last) == 0:
        return int(np.random.SeedSequence([*map(int, head), int(last)])
                   .generate_state(1, np.uint64)[0])
    return np.array([mix_seed(*head, i) for i in np.asarray(last).reshape(-1).tolist()],
                    dtype=np.uint64).reshape(np.shape(last))


def generators(seeds) -> list[np.random.Generator]:
    """channels.generators: one default_rng per seed, in flat order."""
    return [np.random.default_rng(s) for s in np.asarray(seeds, np.uint64).reshape(-1).tolist()]
