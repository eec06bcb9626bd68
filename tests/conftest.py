import pytest

import muskatlab.diffraction as diffraction


@pytest.fixture
def solve_counts(monkeypatch):
    """Counts of the sparse factorizations made from now on, and of the
    triangular solves made with them outside the condition estimate (the
    ones a solution's record counts as corrections)."""
    counts = {"splu": 0, "solves": 0}
    estimating = []
    true_splu, true_onenormest = diffraction.spla.splu, diffraction.spla.onenormest

    class CountingLU:
        def __init__(self, lu):
            self.lu = lu

        def solve(self, *args, **kwargs):
            counts["solves"] += not estimating
            return self.lu.solve(*args, **kwargs)

        def __getattr__(self, name):
            return getattr(self.lu, name)

    def counting_splu(matrix, **kwargs):
        counts["splu"] += 1
        return CountingLU(true_splu(matrix, **kwargs))

    def marked_onenormest(*args, **kwargs):
        estimating.append(True)
        try:
            return true_onenormest(*args, **kwargs)
        finally:
            estimating.pop()

    monkeypatch.setattr(diffraction.spla, "splu", counting_splu)
    monkeypatch.setattr(diffraction.spla, "onenormest", marked_onenormest)
    return counts
