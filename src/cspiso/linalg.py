"""Small exact linear algebra helpers: incremental echelon bases and rank
over the rational / Gaussian-rational scalars."""

from __future__ import annotations

from typing import List, Sequence

from .algebra import Scalar, scalar_inverse


class EchelonBasis:
    """Incremental row space in reduced echelon form (exact arithmetic)."""

    def __init__(self):
        self.pivots: List[int] = []
        self.rows: List[List[Scalar]] = []

    @property
    def rank(self) -> int:
        return len(self.rows)

    def reduce(self, vector: Sequence[Scalar]) -> List[Scalar]:
        v = list(vector)
        for pivot, row in zip(self.pivots, self.rows):
            c = v[pivot]
            if c != 0:
                for idx in range(len(v)):
                    if row[idx] != 0:
                        v[idx] = v[idx] - c * row[idx]
        return v

    def insert(self, vector: Sequence[Scalar]) -> bool:
        """Add the vector to the span; returns True if it was independent."""
        v = self.reduce(vector)
        pivot = next((i for i, x in enumerate(v) if x != 0), None)
        if pivot is None:
            return False
        inv = scalar_inverse(v[pivot])
        v = [x * inv for x in v]
        for row in self.rows:
            c = row[pivot]
            if c != 0:
                for idx in range(len(v)):
                    if v[idx] != 0:
                        row[idx] = row[idx] - c * v[idx]
        self.pivots.append(pivot)
        self.rows.append(v)
        return True


def rank(vectors: Sequence[Sequence[Scalar]]) -> int:
    basis = EchelonBasis()
    for v in vectors:
        basis.insert(v)
    return basis.rank
