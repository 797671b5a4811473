"""Test-graph generators, and a refusal probe, shared by the test
modules."""

import itertools

import pytest

from cointerval import Hypergraph


def all_graphs(d, vertices):
    """Every d-graph on the given vertices, one per subset of the d-sets."""
    universe = list(itertools.combinations(vertices, d))
    for mask in range(2 ** len(universe)):
        yield Hypergraph(
            d, vertices, [e for i, e in enumerate(universe) if mask >> i & 1]
        )


def copath(n):
    """Complement of the path 1-2-...-n: edges {i, j} with j - i >= 2."""
    return Hypergraph(
        2, range(1, n + 1),
        [(i, j) for i, j in itertools.combinations(range(1, n + 1), 2)
         if j - i >= 2],
    )


def random_graph(rng, d, vertices, p):
    """Each d-set of the vertices an edge with probability p, one
    `rng.random()` draw per d-set in lexicographic order."""
    return Hypergraph(d, vertices, [
        e for e in itertools.combinations(vertices, d) if rng.random() < p
    ])


def refusal(call, *args):
    """The exact type and the message of the ValueError call(*args) raises
    (PreconditionError and ParseError are ValueErrors too)."""
    with pytest.raises(ValueError) as err:
        call(*args)
    return type(err.value), str(err.value)
