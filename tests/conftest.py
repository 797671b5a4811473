import pytest

from cointerval import Hypergraph, build_complex, dumpio

from graphs import scrambled_complex

ACCEPTANCE_KEY = pytest.StashKey()


def pytest_configure(config):
    config.stash[ACCEPTANCE_KEY] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    lines = config.stash.get(ACCEPTANCE_KEY, [])
    if lines:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in sorted(lines):
            terminalreporter.write_line(line)


@pytest.fixture
def acceptance(request):
    """Record one pass/fail line per criterion for the terminal summary."""

    def record(line):
        request.config.stash[ACCEPTANCE_KEY].append(line)

    return record


@pytest.fixture
def copath5():
    # complement of the path 2-3-4-5 plus the dominating vertex 1
    return Hypergraph(
        2, range(1, 6), [(1, 2), (1, 3), (1, 4), (1, 5), (2, 4), (2, 5), (3, 5)]
    )


@pytest.fixture
def two_k2():
    return Hypergraph(2, range(1, 5), [(1, 2), (3, 4)])


@pytest.fixture
def k4_3():
    return Hypergraph(3, range(1, 5), [(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)])


@pytest.fixture
def scrambled():
    # the complement of the path 2-3-...-7 plus the dominating vertex 1,
    # a cointerval graph; 60 of its 111 degrees are left to elimination
    H = Hypergraph(
        2, range(1, 8),
        [(1, j) for j in range(2, 8)]
        + [(i, j) for i in range(2, 8) for j in range(i + 2, 8)],
    )
    X = build_complex(H)
    cells = {c: (X.dim(c), X.label(c)) for c in X.all_cells()}
    return scrambled_complex(cells, seed=0)


@pytest.fixture
def holder_calls(monkeypatch):
    """Calls of the dump holder route and of its two sign finders, by
    name: the route a parsed dump took."""
    calls = {"_holder_columns": 0, "_propagated_signs": 0,
             "_rational_signs": 0}
    for name in calls:
        def counted(*args, _name=name, _real=getattr(dumpio, name)):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(dumpio, name, counted)
    return calls
