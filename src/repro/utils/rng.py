"""Random-number-generator plumbing.

Every stochastic component in the library accepts either ``None`` (fresh
default generator), an integer seed, or a ``numpy.random.Generator``.  This
keeps experiments reproducible without threading a generator everywhere.
"""

from __future__ import annotations

from typing import Union

import numpy as np

RngLike = Union[None, int, np.random.Generator]


def ensure_rng(rng: RngLike = None) -> np.random.Generator:
    """Return a ``numpy.random.Generator`` for any accepted RNG specifier."""
    if rng is None:
        return np.random.default_rng()
    if isinstance(rng, np.random.Generator):
        return rng
    if isinstance(rng, (int, np.integer)):
        return np.random.default_rng(int(rng))
    raise TypeError(f"cannot interpret {rng!r} as a random generator")


def derive_worker_seed(root_seed: int, worker_index: int) -> int:
    """Deterministic per-worker seed derived from a root seed.

    Multi-process experiments (the serving fabric's worker replicas, the
    sweep process pools) need every worker's RNG stream to be (a) distinct
    from its siblings and (b) a pure function of ``(root_seed,
    worker_index)`` so a load test replays bit-for-bit across runs and
    across process boundaries.  The derivation routes through
    ``numpy.random.SeedSequence`` spawn keys — the same mechanism NumPy
    itself uses for independent child streams — so derived streams are
    statistically independent, unlike naive ``root_seed + worker_index``
    offsets.
    """
    if worker_index < 0:
        raise ValueError("worker_index must be >= 0")
    sequence = np.random.SeedSequence(
        entropy=int(root_seed), spawn_key=(int(worker_index),)
    )
    return int(sequence.generate_state(1, dtype=np.uint64)[0])
