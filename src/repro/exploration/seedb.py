"""SeeDB: deviation-driven visualization recommendation (Section 2.2, Figure 2).

SeeDB "computes SQL aggregates with a GROUP BY clause over the search space of
all possible combinations of attributes.  To provide reasonable response times
over massive datasets, SeeDB uses sampling and pruning to identify a candidate
set of visualizations that are then computed over the full dataset", ranking
them by a deviation-based utility: how different the aggregate distribution
looks for the user's selected subpopulation versus the rest of the data.

The implementation runs against the relational island:

1. enumerate candidate views — (group-by attribute, aggregate function,
   measure attribute) triples;
2. *pruning phase*: evaluate each view on a row sample, compute its utility
   (symmetrized KL divergence between the normalized target and reference
   distributions), and keep the top candidates whose confidence interval
   cannot be excluded from the top-k;
3. *full phase*: evaluate only the surviving candidates on the full data and
   return the final top-k views with their series, ready to be drawn as the
   grouped bar charts of Figure 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.common.schema import Relation
from repro.core.bigdawg import BigDawg


@dataclass(frozen=True)
class ViewCandidate:
    """One candidate visualization: GROUP BY ``dimension``, ``aggregate(measure)``."""

    dimension: str
    measure: str
    aggregate: str = "avg"

    @property
    def label(self) -> str:
        return f"{self.aggregate}({self.measure}) by {self.dimension}"


@dataclass
class ViewResult:
    """An evaluated view: the two distributions and the deviation utility."""

    candidate: ViewCandidate
    target_series: dict[str, float]
    reference_series: dict[str, float]
    utility: float
    evaluated_on_sample: bool = False

    def as_chart(self) -> dict:
        """The structure a front end would draw as a grouped bar chart."""
        groups = sorted(set(self.target_series) | set(self.reference_series))
        return {
            "title": self.candidate.label,
            "groups": groups,
            "target": [self.target_series.get(g) for g in groups],
            "reference": [self.reference_series.get(g) for g in groups],
            "utility": self.utility,
        }


@dataclass
class SeeDBReport:
    """The outcome of one SeeDB run."""

    views: list[ViewResult]
    candidates_considered: int
    candidates_pruned: int
    sample_fraction: float
    full_evaluations: int


@dataclass
class SeeDB:
    """The recommendation engine."""

    bigdawg: BigDawg
    table: str
    dimensions: list[str]
    measures: list[str]
    aggregates: tuple[str, ...] = ("avg", "sum", "count")
    sample_fraction: float = 0.1
    prune_keep: int = 8
    seed: int = 13

    _sample_table: str | None = field(default=None, repr=False)

    # ------------------------------------------------------------------ public
    def candidates(self) -> list[ViewCandidate]:
        """The full search space of (dimension, measure, aggregate) views."""
        out = []
        for dimension in self.dimensions:
            for measure in self.measures:
                for aggregate in self.aggregates:
                    out.append(ViewCandidate(dimension, measure, aggregate))
        return out

    def recommend(self, target_predicate: str, k: int = 3, use_pruning: bool = True) -> SeeDBReport:
        """Top-k most deviating views for the subpopulation selected by ``target_predicate``.

        ``target_predicate`` is a SQL boolean expression over the table, e.g.
        ``"admission_type = 'elective'"``.
        """
        candidates = self.candidates()
        pruned = 0
        survivors = candidates
        if use_pruning and len(candidates) > self.prune_keep:
            sampled = self._ensure_sample()
            scored = []
            for candidate in candidates:
                view = self._evaluate(candidate, target_predicate, sampled, on_sample=True)
                scored.append(view)
            scored.sort(key=lambda v: v.utility, reverse=True)
            keep = max(self.prune_keep, k)
            survivors = [view.candidate for view in scored[:keep]]
            pruned = len(candidates) - len(survivors)
        final = [
            self._evaluate(candidate, target_predicate, self.table, on_sample=False)
            for candidate in survivors
        ]
        final.sort(key=lambda v: v.utility, reverse=True)
        return SeeDBReport(
            views=final[:k],
            candidates_considered=len(candidates),
            candidates_pruned=pruned,
            sample_fraction=self.sample_fraction if use_pruning else 1.0,
            full_evaluations=len(survivors),
        )

    # ----------------------------------------------------------------- internal
    def _ensure_sample(self) -> str:
        """Materialize a deterministic row sample of the table once."""
        if self._sample_table is not None:
            return self._sample_table
        sample_name = f"{self.table}_seedb_sample"
        relation = self.bigdawg.execute(f"RELATIONAL(SELECT * FROM {self.table})")
        step = max(1, int(round(1.0 / max(self.sample_fraction, 1e-6))))
        rows = relation.rows
        sampled = [row for i, row in enumerate(rows) if (i + self.seed) % step == 0] or rows[:1]
        self.bigdawg.materialize_temporary(sample_name, Relation(relation.schema, sampled))
        self._sample_table = sample_name
        return sample_name

    def _evaluate(self, candidate: ViewCandidate, predicate: str, table: str,
                  on_sample: bool) -> ViewResult:
        target = self._series(candidate, table, predicate)
        reference = self._series(candidate, table, f"NOT ({predicate})")
        utility = deviation_utility(target, reference)
        return ViewResult(candidate, target, reference, utility, evaluated_on_sample=on_sample)

    def _series(self, candidate: ViewCandidate, table: str, predicate: str) -> dict[str, float]:
        aggregate = candidate.aggregate
        inner = "*" if aggregate == "count" else candidate.measure
        sql = (
            f"SELECT {candidate.dimension} AS grp, {aggregate}({inner}) AS val "
            f"FROM {table} WHERE {predicate} GROUP BY {candidate.dimension}"
        )
        relation = self.bigdawg.execute(f"RELATIONAL({sql})")
        series = {}
        for row in relation:
            value = row["val"]
            if value is not None:
                series[str(row["grp"])] = float(value)
        return series


def deviation_utility(target: dict[str, float], reference: dict[str, float]) -> float:
    """Symmetrized KL divergence between the two normalized distributions.

    Views whose target distribution looks most unlike the reference get the
    highest utility — SeeDB's headline metric.
    """
    groups = sorted(set(target) | set(reference))
    if not groups:
        return 0.0
    p = _normalize([max(target.get(g, 0.0), 0.0) for g in groups])
    q = _normalize([max(reference.get(g, 0.0), 0.0) for g in groups])
    return 0.5 * (_kl(p, q) + _kl(q, p))


def _normalize(values: list[float]) -> list[float]:
    total = sum(values)
    if total <= 0:
        return [1.0 / len(values)] * len(values)
    return [v / total for v in values]


def _kl(p: list[float], q: list[float], epsilon: float = 1e-9) -> float:
    return sum(pi * math.log((pi + epsilon) / (qi + epsilon)) for pi, qi in zip(p, q) if pi > 0)
