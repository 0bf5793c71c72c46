"""Binding complex analytics to the polystore.

The demo's "Complex Analytics" screen lets a non-programmer run linear
regression, FFTs and PCA on patient data.  :class:`AnalyticsRunner` is the
layer behind that screen: it pulls matrices out of the array island (or from
relational tables via a cast), runs the algorithms, and returns plain results.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analytics.algorithms import (
    KMeansResult,
    PcaResult,
    RegressionResult,
    dominant_frequency,
    kmeans,
    linear_regression,
    pca,
)
from repro.core.bigdawg import BigDawg
from repro.core.islands.array import ArrayIsland


@dataclass
class AnalyticsRunner:
    """Runs complex analytics through the BigDAWG array island."""

    bigdawg: BigDawg

    # ------------------------------------------------------------------ inputs
    def waveform_matrix(self, array_name: str, attribute: str = "value") -> np.ndarray:
        """Fetch an array-island object as a dense matrix."""
        island = self.bigdawg.island("array")
        assert isinstance(island, ArrayIsland)
        stored = island.fetch_array(array_name)
        return np.asarray(stored.buffer(attribute), dtype=float)

    def feature_matrix(self, sql: str, columns: list[str]) -> np.ndarray:
        """Run a relational query and pull the named numeric columns as a matrix."""
        relation = self.bigdawg.execute(f"RELATIONAL({sql})")
        rows = []
        for row in relation:
            rows.append([float(row[c]) if row[c] is not None else 0.0 for c in columns])
        return np.asarray(rows, dtype=float)

    # -------------------------------------------------------------- algorithms
    def regression(self, sql: str, feature_columns: list[str], target_column: str) -> RegressionResult:
        """Fit a linear regression over the result of a relational query."""
        matrix = self.feature_matrix(sql, feature_columns + [target_column])
        return linear_regression(matrix[:, :-1], matrix[:, -1])

    def waveform_dominant_frequency(self, array_name: str, signal_index: int,
                                    sample_rate_hz: float) -> float:
        matrix = self.waveform_matrix(array_name)
        return dominant_frequency(matrix[signal_index], sample_rate_hz)

    def patient_pca(self, sql: str, columns: list[str], n_components: int = 2) -> PcaResult:
        """PCA over a relational feature matrix."""
        return pca(self.feature_matrix(sql, columns), n_components)

    def patient_clusters(self, sql: str, columns: list[str], k: int, seed: int = 0) -> KMeansResult:
        """k-means over a relational feature matrix."""
        return kmeans(self.feature_matrix(sql, columns), k, seed=seed)
