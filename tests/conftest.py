import os

# Before numpy is imported: one BLAS thread, as the benchmark runs, so the
# tests' arithmetic does not depend on the machine's core count.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import pytest
import scipy.sparse as sp

import muskatlab.diffraction as diffraction


@pytest.fixture
def solve_counts(monkeypatch):
    """Counts of the sparse factorizations made from now on, of the
    triangular solves made with them outside the condition estimate (the
    ones a solution's record counts as corrections), and of the CSC
    matrix-vector products (the refinement's residuals)."""
    counts = {"splu": 0, "solves": 0, "products": 0}
    estimating = []
    true_splu, true_onenormest = diffraction.spla.splu, diffraction.spla.onenormest
    true_product = sp.csc_matrix._matmul_vector

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

    def counting_product(matrix, other):
        counts["products"] += 1
        return true_product(matrix, other)

    monkeypatch.setattr(diffraction.spla, "splu", counting_splu)
    monkeypatch.setattr(sp.csc_matrix, "_matmul_vector", counting_product)
    monkeypatch.setattr(diffraction.spla, "onenormest", marked_onenormest)
    return counts
