"""Tests for the synthetic MIMIC II generator, the polystore loader and the workload."""

from __future__ import annotations

import numpy as np
import pytest

from repro.mimic import MimicGenerator, build_polystore, full_workload, run_workload, waveform_feed_tuples
from tests.conftest import SMALL_GENERATOR


class TestGenerator:
    def test_deterministic_given_seed(self):
        a = SMALL_GENERATOR.generate()
        b = SMALL_GENERATOR.generate()
        assert [p.race for p in a.patients] == [p.race for p in b.patients]
        assert [round(x.stay_days, 3) for x in a.admissions] == [round(x.stay_days, 3) for x in b.admissions]
        np.testing.assert_allclose(a.waveforms[0].values, b.waveforms[0].values)

    def test_cardinalities(self, mimic_dataset):
        summary = mimic_dataset.summary()
        assert summary["patients"] == 60
        assert summary["admissions"] >= summary["patients"]
        assert summary["prescriptions"] > summary["admissions"]
        assert summary["waveforms"] == 3

    def test_referential_integrity(self, mimic_dataset):
        patient_ids = {p.patient_id for p in mimic_dataset.patients}
        admission_ids = {a.admission_id for a in mimic_dataset.admissions}
        assert all(a.patient_id in patient_ids for a in mimic_dataset.admissions)
        assert all(p.admission_id in admission_ids for p in mimic_dataset.prescriptions)
        assert all(n.admission_id in admission_ids for n in mimic_dataset.notes)
        assert all(l.admission_id in admission_ids for l in mimic_dataset.labs)

    def test_value_ranges(self, mimic_dataset):
        assert all(18 <= p.age <= 95 for p in mimic_dataset.patients)
        assert all(0 < a.stay_days <= 60 for a in mimic_dataset.admissions)
        assert all(0 < a.severity <= 1 for a in mimic_dataset.admissions)
        assert all(a.outcome in ("discharged", "deceased") for a in mimic_dataset.admissions)

    def test_waveform_anomalies_present_and_marked(self, mimic_dataset):
        for waveform in mimic_dataset.waveforms:
            assert waveform.has_anomaly  # anomaly_fraction=1.0 in the fixture generator
            assert waveform.anomaly_start < waveform.anomaly_end <= len(waveform.values)
            burst = np.abs(waveform.values[waveform.anomaly_start : waveform.anomaly_end])
            normal = np.abs(waveform.values[: waveform.anomaly_start])
            assert burst.mean() > normal.mean()

    def test_planted_seedb_reversal(self):
        """The elective subpopulation reverses the global race/stay trend (Figure 2)."""
        dataset = MimicGenerator(patient_count=2000, waveform_patients=0, seed=5).generate()
        by_patient = {p.patient_id: p for p in dataset.patients}

        def mean_stay(admission_type: str | None, race: str) -> float:
            stays = [
                a.stay_days for a in dataset.admissions
                if by_patient[a.patient_id].race == race
                and (admission_type is None or a.admission_type == admission_type)
            ]
            return float(np.mean(stays))

        # Globally (non-elective), black patients stay longer than white patients…
        assert mean_stay("emergency", "black") > mean_stay("emergency", "white")
        # …but inside the elective subpopulation the relationship reverses.
        assert mean_stay("elective", "black") < mean_stay("elective", "white")

    def test_notes_contain_demo_phrase(self, mimic_dataset):
        assert any("very sick" in note.text for note in mimic_dataset.notes)


class TestLoader:
    def test_placement_matches_paper(self, deployment):
        objects = deployment.bigdawg.catalog.describe()["objects"]
        assert objects["patients"] == "postgres"
        assert objects["waveform_history"] == "scidb"
        assert objects["notes"] == "accumulo"
        assert objects["waveform_feed"] == "sstore"

    def test_relational_row_counts_match_dataset(self, deployment):
        dataset = deployment.dataset
        assert deployment.relational.table_row_count("patients") == len(dataset.patients)
        assert deployment.relational.table_row_count("admissions") == len(dataset.admissions)
        assert deployment.relational.table_row_count("labs") == len(dataset.labs)

    def test_array_holds_every_waveform_sample(self, deployment):
        dataset = deployment.dataset
        array = deployment.array.array("waveform_history")
        expected = sum(len(w.values) for w in dataset.waveforms)
        assert array.populated_cells == expected
        np.testing.assert_allclose(
            array.buffer("value")[0, :10], dataset.waveforms[0].values[:10]
        )

    def test_notes_are_text_indexed(self, deployment):
        hits = deployment.keyvalue.text_search("notes", ["very sick"])
        assert len(hits) > 0

    def test_waveform_feed_tuples_ordered(self, deployment):
        feed = waveform_feed_tuples(deployment.dataset, signal_id=0)
        assert len(feed) == len(deployment.dataset.waveforms[0].values)
        timestamps = [ts for ts, _ in feed]
        assert timestamps == sorted(timestamps)
        assert waveform_feed_tuples(deployment.dataset, signal_id=999) == []


class TestWorkload:
    def test_every_workload_query_runs(self, deployment):
        results = run_workload(deployment)
        assert len(results) == len(full_workload())
        assert results["patients_given_heparin"].rows[0]["n"] >= 0
        stay = {r["p.race"]: r["avg_stay"] for r in results["stay_by_race"]}
        assert len(stay) >= 3
        assert results["waveform_global_stats"].rows[0]["stddev(value)"] > 0

    def test_workload_classes_cover_paper_sections(self):
        classes = {q.query_class for q in full_workload()}
        assert classes == {"sql_analytics", "complex_analytics", "text_search", "cross_island"}
