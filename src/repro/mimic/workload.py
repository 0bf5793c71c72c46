"""The demo's query workload over the MIMIC II polystore.

Section 1.1 motivates four workload classes; the demo drives them through the
five interfaces.  This module names each class and provides representative
queries, which the CLAIM-1 benchmark runs both on the polystore and on the
"one size fits all" baseline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.mimic.loader import MimicDeployment


@dataclass(frozen=True)
class WorkloadQuery:
    """One representative query: its class, a label, and how to run it on the polystore."""

    query_class: str  # sql_analytics | complex_analytics | text_search | streaming
    label: str
    run: Callable[[MimicDeployment], object]


def sql_analytics_queries() -> list[WorkloadQuery]:
    """Standard SQL analytics, e.g. 'how many patients were given a particular drug'."""
    return [
        WorkloadQuery(
            "sql_analytics",
            "patients_given_heparin",
            lambda d: d.bigdawg.execute(
                "RELATIONAL(SELECT count(*) AS n FROM prescriptions WHERE drug = 'heparin')"
            ),
        ),
        WorkloadQuery(
            "sql_analytics",
            "stay_by_race",
            lambda d: d.bigdawg.execute(
                "RELATIONAL(SELECT p.race, avg(a.stay_days) AS avg_stay FROM patients p "
                "JOIN admissions a ON p.patient_id = a.patient_id GROUP BY p.race)"
            ),
        ),
        WorkloadQuery(
            "sql_analytics",
            "elderly_emergency_admissions",
            lambda d: d.bigdawg.execute(
                "RELATIONAL(SELECT count(*) AS n FROM patients p JOIN admissions a "
                "ON p.patient_id = a.patient_id WHERE p.age > 70 AND a.admission_type = 'emergency')"
            ),
        ),
    ]


def complex_analytics_queries() -> list[WorkloadQuery]:
    """Array analytics over waveforms: aggregates, windows, spectra."""
    return [
        WorkloadQuery(
            "complex_analytics",
            "waveform_global_stats",
            lambda d: d.bigdawg.execute(
                "ARRAY(aggregate(waveform_history, avg(value), stddev(value)))"
            ),
        ),
        WorkloadQuery(
            "complex_analytics",
            "waveform_windowed_average",
            lambda d: d.bigdawg.execute(
                "ARRAY(aggregate(window(waveform_history, value, 32, avg, sample), max(avg_value)))"
            ),
        ),
        WorkloadQuery(
            "complex_analytics",
            "per_signal_energy",
            lambda d: d.bigdawg.execute(
                "ARRAY(aggregate(apply(waveform_history, squared, value * 1.0), sum(squared), signal))"
            ),
        ),
    ]


def text_search_queries() -> list[WorkloadQuery]:
    """Keyword search over clinical notes."""
    return [
        WorkloadQuery(
            "text_search",
            "very_sick_three_reports",
            lambda d: d.bigdawg.execute('TEXT(SEARCH notes FOR "very sick" MIN 3)'),
        ),
        WorkloadQuery(
            "text_search",
            "chest_pain_documents",
            lambda d: d.bigdawg.execute('TEXT(SEARCH notes FOR "chest pain")'),
        ),
    ]


def cross_island_queries() -> list[WorkloadQuery]:
    """Queries that must touch more than one engine (the polystore's raison d'être)."""
    return [
        WorkloadQuery(
            "cross_island",
            "waveform_rows_in_sql",
            lambda d: d.bigdawg.execute(
                "RELATIONAL(SELECT signal, count(*) AS n FROM CAST(waveform_history, relational) "
                "WHERE value > 1.5 GROUP BY signal)"
            ),
        ),
        WorkloadQuery(
            "cross_island",
            "notes_degree_per_patient",
            lambda d: d.bigdawg.execute("D4M(ASSOC notes DEGREE ROWS)"),
        ),
    ]


def full_workload() -> list[WorkloadQuery]:
    """Every representative query, in a stable order."""
    return (
        sql_analytics_queries()
        + complex_analytics_queries()
        + text_search_queries()
        + cross_island_queries()
    )


def run_workload(deployment: MimicDeployment,
                 queries: list[WorkloadQuery] | None = None) -> dict[str, object]:
    """Run every query and return {label: result}; used by examples and tests."""
    results: dict[str, object] = {}
    for query in queries or full_workload():
        results[query.label] = query.run(deployment)
    return results
