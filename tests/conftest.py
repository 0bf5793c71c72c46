"""Shared fixtures: a small deterministic MIMIC deployment reused across tests,
and the reference executor the relational parity suites compare against."""

from __future__ import annotations

import pytest

from repro.common.schema import Relation
from repro.common.serialization import BinaryCodec
from repro.engines.relational import RelationalEngine
from repro.engines.relational.executor import Executor
from repro.mimic import MimicGenerator, build_polystore
from repro.mimic.generator import MimicDataset


def reference_execute(engine: RelationalEngine, sql: str) -> Relation:
    """``sql`` answered by the row-at-a-time reference executor over
    ``engine``'s tables and (optimized) plan — what ``engine.execute(sql)``
    must reproduce byte for byte."""
    return Executor(engine).execute(engine.plan(sql))


def assert_matches_reference(engine: RelationalEngine, sql: str) -> Relation:
    """Assert ``engine.execute(sql)`` equals the reference in schema, values,
    order and (where the schema encodes at all) ``BinaryCodec`` bytes."""
    actual = engine.execute(sql)
    expected = reference_execute(engine, sql)
    assert actual.schema == expected.schema, sql
    assert [r.values for r in actual.rows] == [r.values for r in expected.rows], sql
    codec = BinaryCodec()
    try:
        expected_bytes = codec.encode(expected)
    except ValueError:
        # A known inference quirk (min over TEXT typed FLOAT) makes a few
        # schemas unencodable on every path; values were compared above.
        return actual
    assert codec.encode(actual) == expected_bytes, sql
    return actual


# Tests take the two helpers as fixtures: ``from conftest import ...`` would
# resolve to whichever conftest.py (tests/ or benchmarks/) pytest loaded last.
@pytest.fixture(scope="session", name="reference_execute")
def _reference_execute_fixture():
    return reference_execute


@pytest.fixture(scope="session", name="assert_matches_reference")
def _assert_matches_reference_fixture():
    return assert_matches_reference


SMALL_GENERATOR = MimicGenerator(
    patient_count=60,
    waveform_patients=3,
    waveform_samples=1000,
    sample_rate_hz=50.0,
    anomaly_fraction=1.0,
    seed=42,
)


@pytest.fixture(scope="session")
def mimic_dataset() -> MimicDataset:
    """A small synthetic MIMIC II dataset (generated once per test session)."""
    return SMALL_GENERATOR.generate()


@pytest.fixture()
def deployment(mimic_dataset):
    """A freshly loaded polystore over the shared dataset (per test, engines are mutable)."""
    return build_polystore(dataset=mimic_dataset)
