"""The tropical degree rule replayed along a walk, the independent oracle of the carried degrees.

``mutate_state`` fixes each new variable's degree at its exchange, from the
carried degrees of the factors of M' and M''.  This module gets the same
degree the textbook way: rebuild the seeds of the walk with ``mutate_pair``
from the state's initial seed, then transport the variable's degree e_k,
taken in the seed where it was born, back step by step to the initial seed.
"""

from __future__ import annotations

from qcab.seeds import mutate_pair


def gvector_mutate(g_prime: tuple[int, ...], k: int, col: list[int]) -> tuple[int, ...]:
    """Degree transport along one mutation; ``col`` is column k of the mutated B."""
    gk = g_prime[k - 1]
    sign = 1 if gk >= 0 else -1
    out = [g + gk * max(sign * c, 0) for g, c in zip(g_prime, col)]
    out[k - 1] = -gk
    return tuple(out)


def seed_chain(state) -> list:
    """The seed before the first step of the state's walk and after each, rebuilt from ``state.initial``."""
    chain = [state.initial]
    for k in state.history:
        chain.append(mutate_pair(chain[-1], k))
    return chain


def replayed_degree(state, position: int, chain: list | None = None) -> tuple[int, ...]:
    """The initial-seed degree of a current variable, replayed back from its birth by the stepwise degree rule.

    ``chain`` is ``seed_chain(state)``, rebuilt when not given; a caller that
    walks step by step may keep it and pass it in.
    """
    chain = seed_chain(state) if chain is None else chain
    born = max((t for t, k in enumerate(state.history, 1) if k == position), default=0)
    g = tuple(1 if u == position else 0 for u in range(1, state.initial.size + 1))
    for t in range(born, 0, -1):
        k = state.history[t - 1]
        g = gvector_mutate(g, k, chain[t].b[:, k - 1].tolist())
    return g
