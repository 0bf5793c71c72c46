"""Seeded workload generators: data, deployments and closed-loop op streams.

``--seed`` is the only source of randomness: every generator below derives
its numpy ``Generator`` from ``(seed, workload, purpose[, client])`` through
SHA-256, so the same seed gives a byte-identical data set and op stream in
any process (no dependence on ``PYTHONHASHSEED``).  The program under test
only ever sees the generated query strings.

Each workload object offers:

* ``generate()`` — build the seeded data (plain Python/numpy, no ``repro``);
* ``deploy(clients, journal)`` — load it into engines and build the runtime;
* ``ops(client, clients)`` — that client's endless op stream, each op carrying
  the oracle's expected answer (or, for ``relational_analytics``, the key
  :meth:`expected` resolves after the clock has stopped);
* ``WHY`` — the one-sentence rationale recorded in ``BENCHMARK.json``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Iterator

import numpy as np

import oracle

CACHE_CAPACITY = 256


def rng_for(seed: int, *parts: Any) -> np.random.Generator:
    digest = hashlib.sha256(repr((seed,) + parts).encode()).digest()
    return np.random.default_rng(int.from_bytes(digest[:8], "little"))


@dataclass
class Op:
    """One closed-loop operation: its queries run back to back under one timer."""

    kind: str
    queries: tuple[str, ...]
    #: Expected rows per query; None defers to ``workload.expected(op)``.
    expected: "tuple[oracle.Rows, ...] | None" = None
    write: bool = False
    #: How many CASTs the op must execute (the harness checks the migrator).
    casts: int = 0
    key: Any = None


@dataclass
class Deployment:
    bigdawg: Any
    runtime: Any
    engines: dict[str, Any] = field(default_factory=dict)


def _runtime(bigdawg: Any, clients: int, journal: Any = None) -> Any:
    from repro.runtime.scheduler import PolystoreRuntime

    # The load model pins everything that would otherwise follow the host:
    # one pool worker and one morsel worker per client, never "auto".
    return PolystoreRuntime(
        bigdawg, workers=clients, parallelism=clients,
        cache_capacity=CACHE_CAPACITY, engine_latency=0.0, journal=journal,
    )


class Workload:
    """What the harness needs from a workload; the stateful ones fill in
    ``Op.expected`` as they generate, the others override the oracle hooks."""

    name = ""
    WHY = ""
    #: Every ``Op.kind`` the stream yields; the traced replay runs until each
    #: has missed the cache once, so the layers it enters never depend on the seed.
    KINDS: tuple[str, ...] = ()
    #: An array-engine object the traced run may CAST into the relational
    #: engine, to time the array export / relational import ends.
    reverse_cast_object: "str | None" = None

    def __init__(self, seed: int, sizes: Any = None) -> None:
        self.seed = seed
        self.sizes = sizes if sizes is not None else self.SIZES()

    def build_oracle(self) -> None:
        """Heavy oracle preparation, kept out of the timed set-up."""

    def expected(self, op: Op) -> "tuple[oracle.Rows, ...]":
        return op.expected


# =============================================================== mimic_serving
@dataclass(frozen=True)
class MimicSizes:
    patients: int = 2000
    waveform_patients: int = 8
    waveform_samples: int = 20000
    ward_patients: int = 64
    distinct_queries: int = 4096   # 16x the result cache
    zipf_exponent: float = 1.1
    warmup_ops: int = 512
    trace_ops: int = 300


#: Kind per popularity rank, repeating: 40 % point/small-filter SQL, 20 % join
#: aggregate, 15 % array window, 15 % text, 10 % D4M.  Fixing the kind of each
#: rank keeps the realized mix (and what the cache holds) equal across seeds;
#: the seed picks the parameters.
_MIMIC_PATTERN = "PJAPTPDPJAPTPJPDATPJ"

_PHRASES = (
    "very sick", "chest pain", "vital signs stable", "resting comfortably",
    "ecg ordered", "acute events overnight", "tolerating diet",
    "family meeting held", "increased pressor support", "nasal cannula",
    "rate control", "mild fever overnight", "cultures pending",
    "ongoing hypotension", "responded well", "continuing current plan",
    "aspirin", "heparin", "warfarin", "metoprolol", "furosemide", "insulin",
    "morphine", "vancomycin", "dopamine", "amiodarone",
)


class MimicServing(Workload):
    name = "mimic_serving"
    SIZES = MimicSizes
    KINDS = ("point", "join", "array", "text", "d4m")
    WHY = ("paper demo mix (40% point SQL, 20% join-agg, 15% array, 15% text, 10% D4M), "
           "Zipf(1.1) over 4096 texts = 16x cache: sub-ms engine work, so parse/plan/"
           "cache/admission/pool hop dominate")

    # ------------------------------------------------------------------ data
    def generate(self) -> None:
        from repro.mimic import MimicGenerator

        s = self.sizes
        self.dataset = MimicGenerator(
            patient_count=s.patients, waveform_patients=s.waveform_patients,
            waveform_samples=s.waveform_samples, anomaly_fraction=0.5,
            seed=int(rng_for(self.seed, self.name, "data").integers(1 << 31)),
        ).generate()
        self._build_catalog()

    def deploy(self, clients: int, journal: Any = None) -> Deployment:
        from repro.mimic import build_polystore

        dep = build_polystore(dataset=self.dataset)
        # A ward-sized key-value table: the D4M island fetches whole objects,
        # so its ops read this one to stay in the sub-millisecond class.
        ward = dep.keyvalue.create_table("ward_notes", text_indexed=True, replace=True)
        for note in self.dataset.notes:
            if note.patient_id <= self.sizes.ward_patients:
                ward.put(f"patient_{note.patient_id:06d}", note.author,
                         f"note_{note.note_id:08d}", note.text)
        dep.bigdawg.catalog.register_object("ward_notes", "accumulo", "kvtable", replace=True)
        return Deployment(dep.bigdawg, _runtime(dep.bigdawg, clients, journal),
                          {"relational": dep.relational, "array": dep.array})

    # --------------------------------------------------------------- queries
    def _build_catalog(self) -> None:
        """The ``distinct_queries`` query texts, by popularity rank."""
        rng = rng_for(self.seed, self.name, "catalog")
        ds, s = self.dataset, self.sizes
        admissions = len(ds.admissions)
        texts: list[str] = []
        kinds: list[str] = []
        seen: set[str] = set()
        makers = {
            "P": self._point, "J": self._join, "A": self._array,
            "T": self._text, "D": self._d4m,
        }
        rank = 0
        while len(texts) < s.distinct_queries:
            kind = _MIMIC_PATTERN[rank % len(_MIMIC_PATTERN)]
            while True:
                text = makers[kind](rng, admissions)
                if text not in seen:
                    break
            seen.add(text)
            texts.append(text)
            kinds.append({"P": "point", "J": "join", "A": "array",
                          "T": "text", "D": "d4m"}[kind])
            rank += 1
        self.texts, self.kinds = texts, kinds
        weights = np.arange(1, len(texts) + 1, dtype=float) ** -s.zipf_exponent
        self.popularity = weights / weights.sum()

    def _point(self, rng: np.random.Generator, admissions: int) -> str:
        patient = int(rng.integers(1, self.sizes.patients + 1))
        form = int(rng.integers(4))
        if form == 0:
            return f"RELATIONAL(SELECT * FROM patients WHERE patient_id = {patient})"
        if form == 1:
            admission = int(rng.integers(1, admissions + 1))
            return ("RELATIONAL(SELECT admission_type, stay_days, outcome FROM admissions "
                    f"WHERE admission_id = {admission})")
        if form == 2:
            dose = int(rng.integers(1, 10)) * 50
            return ("RELATIONAL(SELECT drug, dose_mg FROM prescriptions "
                    f"WHERE patient_id = {patient} AND dose_mg > {dose}.0)")
        return f"RELATIONAL(SELECT count(*) AS n FROM admissions WHERE patient_id = {patient})"

    def _join(self, rng: np.random.Generator, admissions: int) -> str:
        p = int(rng.integers(1, self.sizes.patients + 1))
        if rng.integers(2):
            return ("RELATIONAL(SELECT count(*) AS n, avg(a.stay_days) AS s FROM patients p "
                    "JOIN admissions a ON p.patient_id = a.patient_id "
                    f"WHERE p.patient_id = {p} AND a.patient_id = {p})")
        return ("RELATIONAL(SELECT a.admission_type, count(*) AS n, sum(r.dose_mg) AS d "
                "FROM admissions a JOIN prescriptions r ON a.admission_id = r.admission_id "
                f"WHERE a.patient_id = {p} AND r.patient_id = {p} GROUP BY a.admission_type)")

    def _array(self, rng: np.random.Generator, admissions: int) -> str:
        s = self.sizes
        signal = int(rng.integers(s.waveform_patients))
        length = int(rng.choice((64, 128, 256)))
        lo = int(rng.integers(0, s.waveform_samples - length))
        box = f"subarray(waveform_history, {signal}, {lo}, {signal}, {lo + length - 1})"
        if rng.integers(2):
            window = int(rng.choice((4, 8, 16)))
            return f"ARRAY(aggregate(window({box}, value, {window}, avg, sample), max(avg_value)))"
        return f"ARRAY(aggregate({box}, avg(value), max(value)))"

    def _text(self, rng: np.random.Generator, admissions: int) -> str:
        first = str(rng.choice(_PHRASES))
        form = int(rng.integers(3))
        if form == 0:
            return f'TEXT(SEARCH notes FOR "{first}" MIN {int(rng.integers(2, 7))})'
        second = str(rng.choice(_PHRASES))
        if form == 1 and second != first:
            return f'TEXT(SEARCH notes FOR "{first}" AND "{second}")'
        table = "ward_notes" if rng.integers(2) else "notes"
        minimum = int(rng.integers(2, 9))
        return f'TEXT(SEARCH {table} FOR "{first}" AND "{second}" MIN {minimum})'

    def _d4m(self, rng: np.random.Generator, admissions: int) -> str:
        count = int(rng.integers(1, 4))
        patients = rng.choice(self.sizes.ward_patients, size=count, replace=False) + 1
        rows = ",".join(f"patient_{int(p):06d}" for p in sorted(patients))
        axis = "ROWS" if rng.integers(2) else "COLS"
        return f"D4M(ASSOC ward_notes ROWS {rows} DEGREE {axis})"

    # ---------------------------------------------------------------- oracle
    def build_oracle(self) -> None:
        """Expected rows for every distinct query text."""
        ds = self.dataset
        sql = oracle.SqlOracle()
        sql.load("patients", [("patient_id", "INTEGER PRIMARY KEY"), ("age", "INTEGER"),
                              ("sex", "TEXT"), ("race", "TEXT")],
                 [(p.patient_id, p.age, p.sex, p.race) for p in ds.patients])
        sql.load("admissions", [("admission_id", "INTEGER PRIMARY KEY"), ("patient_id", "INTEGER"),
                                ("admission_type", "TEXT"), ("stay_days", "REAL"),
                                ("severity", "REAL"), ("outcome", "TEXT")],
                 [(a.admission_id, a.patient_id, a.admission_type, a.stay_days, a.severity,
                   a.outcome) for a in ds.admissions], index=["patient_id"])
        sql.load("prescriptions", [("prescription_id", "INTEGER PRIMARY KEY"),
                                   ("admission_id", "INTEGER"), ("patient_id", "INTEGER"),
                                   ("drug", "TEXT"), ("dose_mg", "REAL")],
                 [(r.prescription_id, r.admission_id, r.patient_id, r.drug, r.dose_mg)
                  for r in ds.prescriptions], index=["patient_id"])
        waves = np.stack([np.asarray(w.values, dtype=float) for w in ds.waveforms])
        # The key-value engine names a document "<family>:<qualifier>".
        notes = [(f"patient_{n.patient_id:06d}", f"{n.author}:note_{n.note_id:08d}", n.text)
                 for n in ds.notes]
        ward = [n for n, note in zip(notes, ds.notes)
                if note.patient_id <= self.sizes.ward_patients]
        ward_cells = [(row, document) for row, document, _text in ward]
        self.answers = [
            self._answer(text, kind, sql, waves, notes, ward, ward_cells)
            for text, kind in zip(self.texts, self.kinds)
        ]
        sql.close()

    @staticmethod
    def _answer(text: str, kind: str, sql: oracle.SqlOracle, waves: np.ndarray,
                notes: list, ward: list, ward_cells: list) -> oracle.Rows:
        body = text[text.index("(") + 1:-1]
        if kind in ("point", "join"):
            return sql.query(body)
        if kind == "array":
            numbers = [int(t) for t in body.replace("(", ",").replace(")", ",").split(",")
                       if t.strip().lstrip("-").isdigit()]
            signal, lo, _signal, hi = numbers[:4]
            segment = waves[signal, lo:hi + 1]
            if "window(" in body:
                return [(oracle.window_stat(segment, numbers[4]),)]
            return [(float(segment.mean()), float(segment.max()))]
        if kind == "text":
            words = body.split()
            table = words[1]
            minimum = int(words[-1]) if words[-2] == "MIN" else None
            phrases = body.split('"')[1::2]
            return oracle.text_search(ward if table == "ward_notes" else notes,
                                      phrases, minimum)
        words = body.split()
        return oracle.d4m_degree(ward_cells, words[3].split(","), words[5].lower())

    def expected(self, op: Op) -> tuple[oracle.Rows, ...]:
        return (self.answers[op.key],)

    # ------------------------------------------------------------------- ops
    def ops(self, client: int, clients: int) -> Iterator[Op]:
        rng = rng_for(self.seed, self.name, "ops", client)
        while True:
            for rank in rng.choice(len(self.texts), size=4096, p=self.popularity):
                rank = int(rank)
                yield Op(self.kinds[rank], (self.texts[rank],), key=rank)


# ======================================================== relational_analytics
@dataclass(frozen=True)
class AnalyticsSizes:
    fact_rows: int = 24_000
    dim_big_rows: int = 3_000
    dims_rows: int = 50
    budget_fraction: float = 0.25   # join_memory_budget / dim_big build bytes
    warmup_ops: int = 32
    trace_ops: int = 64


#: Two rounds of 16 ops in this fixed order: fifteen in-memory ops, then one
#: spilling join (inner in the first round, left outer in the second).  A
#: spilled join's latency under two clients spreads over a 5x range, so it is
#: kept to 1 op in 16: p50 and p90 then fall among the in-memory shapes, where
#: samples are dense, and the spill path shows in throughput, CPU and the
#: counters.  By latency the 16 ops rank top_n/filter_aggregate (4), like (2),
#: group_by (4), join_small (3), group_by_multi (2), spill (1), which puts the
#: median inside the group_by ops and p90 inside the group_by_multi ops rather
#: than on a border between shapes.  The seed picks only the literals.
_FIFTEEN = ("filter_aggregate", "group_by", "group_by_multi", "join_small", "top_n", "like",
            "group_by", "filter_aggregate", "join_small", "group_by_multi", "top_n", "like",
            "group_by", "join_small", "group_by")
_ANALYTICS_ROUND = _FIFTEEN + ("join_inner_large",) + _FIFTEEN + ("join_left_outer",)


class RelationalAnalytics(Workload):
    name = "relational_analytics"
    SIZES = AnalyticsSizes
    KINDS = tuple(dict.fromkeys(_ANALYTICS_ROUND))
    WHY = ("scans over fact(24k) x dim_big(3k)/dims(50): filter, 1/4-key group-by, joins "
           "(large ones spill: budget = 1/4 build bytes), top-N, LIKE; fresh literal per op "
           "bypasses the cache; engine >90% of op")

    def generate(self) -> None:
        s = self.sizes
        rng = rng_for(self.seed, self.name, "data")
        ids = np.arange(s.fact_rows)
        self.fact = {
            "id": ids,
            "grp": ids % s.dims_rows,
            "value": rng.random(s.fact_rows) * 100.0,
            "flag": ids % 7,
            "bucket": ids % 4,
            # fk spreads past dim_big's keys, so the outer join has
            # unmatched (null-padded) probe rows.
            "fk": rng.integers(0, s.dim_big_rows + s.dim_big_rows // 5, s.fact_rows),
        }
        self.region = [f"region_{i % 8}" for i in range(s.fact_rows)]
        self.labels = [f"segment_{g % 8}" for g in range(s.dims_rows)]
        self.weight = rng.random(s.dim_big_rows) * 10.0

    def fact_rows(self) -> list[tuple]:
        f = self.fact
        return list(zip(f["id"].tolist(), f["grp"].tolist(), f["value"].tolist(),
                        f["flag"].tolist(), f["bucket"].tolist(), self.region,
                        f["fk"].tolist()))

    def deploy(self, clients: int, journal: Any = None) -> Deployment:
        from repro import BigDawg
        from repro.engines.relational import RelationalEngine

        engine = RelationalEngine("postgres")
        engine.execute(
            "CREATE TABLE fact (id INTEGER PRIMARY KEY, grp INTEGER, value FLOAT, "
            "flag INTEGER, bucket INTEGER, region TEXT, fk INTEGER)")
        engine.insert_rows("fact", self.fact_rows())
        engine.execute("CREATE TABLE dims (grp INTEGER PRIMARY KEY, label TEXT)")
        engine.insert_rows("dims", list(enumerate(self.labels)))
        engine.execute("CREATE TABLE dim_big (fk INTEGER PRIMARY KEY, weight FLOAT)")
        engine.insert_rows("dim_big", list(enumerate(self.weight.tolist())))
        bigdawg = BigDawg()
        bigdawg.add_engine(engine)
        for table in ("fact", "dims", "dim_big"):
            bigdawg.catalog.register_object(table, "postgres", "table", replace=True)
        # One unbudgeted large join tells us dim_big's build footprint; the
        # budget is then a quarter of it, so both large joins take the
        # grace/hybrid spill path while the 50-row dims join stays in memory.
        engine.execute("SELECT count(*) FROM fact f JOIN dim_big d ON f.fk = d.fk")
        self.build_bytes = engine.peak_build_bytes
        engine.peak_build_bytes = 0
        engine.join_memory_budget = int(self.build_bytes * self.sizes.budget_fraction)
        return Deployment(bigdawg, _runtime(bigdawg, clients, journal),
                          {"relational": engine})

    def build_oracle(self) -> None:
        self.oracle = oracle.AnalyticsOracle(self.fact, self.labels, self.weight)

    def sql_oracle(self) -> oracle.SqlOracle:
        """The same tables in SQLite (the smoke test's cross-check)."""
        sql = oracle.SqlOracle()
        sql.load("fact", [("id", "INTEGER PRIMARY KEY"), ("grp", "INTEGER"), ("value", "REAL"),
                          ("flag", "INTEGER"), ("bucket", "INTEGER"), ("region", "TEXT"),
                          ("fk", "INTEGER")], self.fact_rows())
        sql.load("dims", [("grp", "INTEGER PRIMARY KEY"), ("label", "TEXT")],
                 list(enumerate(self.labels)))
        sql.load("dim_big", [("fk", "INTEGER PRIMARY KEY"), ("weight", "REAL")],
                 list(enumerate(self.weight.tolist())))
        return sql

    @staticmethod
    def sql_for(shape: str, x: str, arg: int) -> str:
        return {
            "filter_aggregate":
                "SELECT count(*) AS n, sum(value) AS s, avg(value) AS a, max(value) AS hi "
                f"FROM fact WHERE value > {x} AND flag = {arg}",
            "group_by":
                f"SELECT grp, count(*) AS n, avg(value) AS a FROM fact WHERE value > {x} "
                "GROUP BY grp",
            "group_by_multi":
                "SELECT grp, flag, bucket, region, count(*) AS n, avg(value) AS a, "
                f"max(value) AS hi FROM fact WHERE value > {x} "
                "GROUP BY grp, flag, bucket, region",
            "join_small":
                "SELECT d.label, count(*) AS n, sum(f.value) AS s FROM fact f "
                f"JOIN dims d ON f.grp = d.grp WHERE f.value > {x} GROUP BY d.label",
            "join_inner_large":
                "SELECT count(*) AS n, sum(f.value) AS s, min(d.weight) AS lo FROM fact f "
                f"JOIN dim_big d ON f.fk = d.fk WHERE f.value > {x}",
            "join_left_outer":
                "SELECT count(*) AS n, count(d.weight) AS matched, sum(f.value) AS s "
                f"FROM fact f LEFT JOIN dim_big d ON f.fk = d.fk WHERE f.value > {x}",
            "top_n":
                f"SELECT id, value FROM fact WHERE value > {x} "
                f"ORDER BY value DESC, id LIMIT {arg}",
            "like":
                "SELECT region, count(*) AS n, avg(value) AS a FROM fact "
                f"WHERE region LIKE 'region_{arg}%' AND value > {x} GROUP BY region",
        }[shape]

    def ops(self, client: int, clients: int) -> Iterator[Op]:
        rng = rng_for(self.seed, self.name, "ops", client)
        sequence = 0
        # Clients start a fraction of a 16-op round apart, so their spilling
        # joins interleave instead of colliding.
        offset = (client * 16) // clients
        while True:
            for shape in _ANALYTICS_ROUND[offset:] + _ANALYTICS_ROUND[:offset]:
                if shape == "top_n":
                    base, arg = 90.0 + 9.0 * rng.random(), 20
                elif shape == "filter_aggregate":
                    base, arg = 40.0 * rng.random(), int(rng.integers(7))
                elif shape == "like":
                    base, arg = 40.0 * rng.random(), int(rng.integers(8))
                elif shape in ("join_inner_large", "join_left_outer"):
                    # 10-40 % of fact probes the spilled build: the spill path
                    # stays the costliest shape without taking the whole run.
                    base, arg = 60.0 + 30.0 * rng.random(), 0
                else:
                    base, arg = 40.0 * rng.random(), 0
                # The trailing digits make the literal (hence the query text)
                # unique per client and op: the result cache can never serve it.
                x = f"{round(base, 3) + (client * 100_000 + sequence) * 1e-9:.9f}"
                sequence += 1
                yield Op(shape, (f"RELATIONAL({self.sql_for(shape, x, arg)})",),
                         key=(shape, x, arg))

    def expected(self, op: Op) -> tuple[oracle.Rows, ...]:
        shape, x, arg = op.key
        return (self.oracle.answer(shape, float(x), arg),)


# =========================================================== cross_island_cast
@dataclass(frozen=True)
class CastSizes:
    readings_tables: int = 8
    events_tables: int = 4
    wave_arrays: int = 4
    signals: int = 8
    readings_samples: int = 400     # rows per readings table = signals x this
    events_samples: int = 150
    wave_samples: int = 500
    warmup_ops: int = 40            # one 20-op round per client: the same mix on every seed
    trace_ops: int = 40


_EVENT_LABELS = ("normal", "ectopic", "pause", "noise")


class CrossIslandCast(Workload):
    name = "cross_island_cast"
    SIZES = CastSizes
    KINDS = ("refresh", "shim_read", "with_join")
    reverse_cast_object = "wave_0"
    WHY = ("per-client objects: 60% INSERT + ARRAY(aggregate(CAST(table, array))) re-cast "
           "(columnar and row-binary frames), 25% SQL over an array via the shim, 15% WITH "
           "array->SQL join; CAST and codec dominate")

    def generate(self) -> None:
        s = self.sizes
        rng = rng_for(self.seed, self.name, "data")
        self.readings = [rng.normal(0.0, 1.0, (s.signals, s.readings_samples))
                         for _ in range(s.readings_tables)]
        self.events = [rng.normal(0.0, 1.0, (s.signals, s.events_samples))
                       for _ in range(s.events_tables)]
        self.waves = [rng.normal(0.0, 1.0, (s.signals, s.wave_samples))
                      for _ in range(s.wave_arrays)]
        self.signal_names = [f"lead_{i}" for i in range(s.signals)]
        self.models = {f"readings_{k}": oracle.SignalTableModel(v)
                       for k, v in enumerate(self.readings)}
        self.models.update({f"events_{k}": oracle.SignalTableModel(v)
                            for k, v in enumerate(self.events)})

    @staticmethod
    def _label(signal: int, sample: int) -> str:
        return _EVENT_LABELS[(signal + sample) % len(_EVENT_LABELS)]

    def deploy(self, clients: int, journal: Any = None) -> Deployment:
        from repro import BigDawg
        from repro.engines.array import ArrayEngine
        from repro.engines.array.schema import ArraySchema, Attribute, Dimension
        from repro.engines.relational import RelationalEngine

        s = self.sizes
        relational, array = RelationalEngine("postgres"), ArrayEngine("scidb")
        bigdawg = BigDawg()
        bigdawg.add_engine(relational)
        bigdawg.add_engine(array)
        for k, values in enumerate(self.readings):
            relational.execute(
                f"CREATE TABLE readings_{k} (signal INTEGER, sample INTEGER, value FLOAT)")
            relational.insert_rows(f"readings_{k}", [
                (sig, smp, float(values[sig, smp]))
                for sig in range(s.signals) for smp in range(values.shape[1])])
            bigdawg.catalog.register_object(f"readings_{k}", "postgres", "table", replace=True)
        for k, values in enumerate(self.events):
            relational.execute(
                f"CREATE TABLE events_{k} (signal INTEGER, sample INTEGER, value FLOAT, "
                "label TEXT)")
            relational.insert_rows(f"events_{k}", [
                (sig, smp, float(values[sig, smp]), self._label(sig, smp))
                for sig in range(s.signals) for smp in range(values.shape[1])])
            bigdawg.catalog.register_object(f"events_{k}", "postgres", "table", replace=True)
        relational.execute("CREATE TABLE signals_dim (signal INTEGER PRIMARY KEY, name TEXT)")
        relational.insert_rows("signals_dim", list(enumerate(self.signal_names)))
        bigdawg.catalog.register_object("signals_dim", "postgres", "table", replace=True)
        for j, values in enumerate(self.waves):
            stored = array.create_array(ArraySchema(
                f"wave_{j}",
                [Dimension("signal", 0, s.signals - 1, 1),
                 Dimension("sample", 0, s.wave_samples - 1, s.wave_samples)],
                [Attribute("value", "float")]), replace=True)
            stored.write_block("value", (0, 0), values)
            bigdawg.catalog.register_object(f"wave_{j}", "scidb", "array", replace=True)
        return Deployment(bigdawg, _runtime(bigdawg, clients, journal),
                          {"relational": relational, "array": array})

    def ops(self, client: int, clients: int) -> Iterator[Op]:
        s = self.sizes
        rng = rng_for(self.seed, self.name, "ops", client)
        mine = lambda n: [i for i in range(n) if i % clients == client]  # noqa: E731
        tables = ([f"readings_{k}" for k in mine(s.readings_tables)]
                  + [f"events_{k}" for k in mine(s.events_tables)])
        waves = mine(s.wave_arrays)
        # 20-op rounds in seeded order: 12 refresh, 5 shim reads, 3 WITH joins.
        pattern = ["refresh"] * 12 + ["shim_read"] * 5 + ["with_join"] * 3
        while True:
            for kind in rng.permutation(pattern):
                kind = str(kind)
                x = round(float(rng.normal(0.0, 0.5)), 6)
                if kind == "refresh":
                    table = tables[int(rng.integers(len(tables)))]
                    signal = int(rng.integers(s.signals))
                    value = round(float(rng.normal(0.0, 1.0)), 6)
                    model = self.models[table]
                    sample = model.append(signal, value)
                    row = f"{signal}, {sample}, {value}"
                    if table.startswith("events"):
                        row += f", '{self._label(signal, sample)}'"
                    yield Op(kind, (
                        f"RELATIONAL(INSERT INTO {table} VALUES ({row}))",
                        f"ARRAY(aggregate(CAST({table}, array), avg(value), signal))",
                    ), expected=([(1,)], model.averages()), write=True, casts=1)
                    continue
                j = waves[int(rng.integers(len(waves)))]
                wave = self.waves[j]
                if kind == "shim_read":
                    counts = (wave > x).sum(axis=1)
                    yield Op(kind, (
                        f"RELATIONAL(SELECT signal, count(*) AS n FROM wave_{j} "
                        f"WHERE value > {x} GROUP BY signal)",
                    ), expected=([(sig, int(n)) for sig, n in enumerate(counts) if n],))
                else:
                    lo = int(rng.integers(0, s.wave_samples // 2))
                    hi = int(rng.integers(lo + 8, s.wave_samples))
                    x = round(x / 10.0, 6)
                    means = oracle.per_signal(wave, lo, hi)
                    yield Op(kind, (
                        f"WITH s = ARRAY(aggregate(between(wave_{j}, 0, {lo}, "
                        f"{s.signals - 1}, {hi}), avg(value), signal)) "
                        "RELATIONAL(SELECT d.name, s.value FROM s JOIN signals_dim d "
                        f"ON s.coordinate = d.signal WHERE s.value > {x})",
                    ), expected=([(self.signal_names[sig], avg)
                                  for sig, avg in means if avg > x],))

# =============================================================== durable_mixed
@dataclass(frozen=True)
class DurableSizes:
    vitals_rows: int = 12_000     # split evenly over one table per client
    patients: int = 1000
    warmup_ops: int = 64
    trace_ops: int = 300


class DurableMixed(Workload):
    name = "durable_mixed"
    SIZES = DurableSizes
    KINDS = ("insert", "update", "delete", "point", "patient")
    WHY = ("12k indexed vitals rows (table per client), journal fsync'd per append: 50% "
           "writes (INSERT 70/UPDATE 20/DELETE 10 by PK), 50% reads of recent keys; restart "
           "+ recover() checked against a model of acks")

    #: Stated in every result stamp: the journal fsyncs on every append.
    FLUSH_POLICY = "FileJournalBackend(fsync=True): flush+fsync per appended record"

    def generate(self) -> None:
        s = self.sizes
        rng = rng_for(self.seed, self.name, "data")
        rates = np.round(60.0 + 40.0 * rng.random(s.vitals_rows), 3)
        spo2 = np.round(90.0 + 10.0 * rng.random(s.vitals_rows), 3)
        self.rows = [(i, i % s.patients, float(rates[i]), float(spo2[i]), f"n{i % 13}")
                     for i in range(s.vitals_rows)]
        self.models: dict[int, oracle.VitalsModel] = {}

    def deploy(self, clients: int, journal: Any = None) -> Deployment:
        from repro import BigDawg
        from repro.common.schema import Schema
        from repro.engines.relational import RelationalEngine

        engine = RelationalEngine("postgres")
        bigdawg = BigDawg()
        bigdawg.add_engine(engine)
        # One table per client: the engine's UPDATE/DELETE scan is not safe
        # against a concurrent INSERT into the same table (it raises
        # "dictionary changed size during iteration"), and a benchmark op must
        # never fail.  Each client still shares the engine, journal and cache.
        for client in range(clients):
            table = f"vitals_{client}"
            engine.create_table(table, Schema([
                ("vital_id", "integer", False), ("patient_id", "integer", False),
                ("heart_rate", "float"), ("spo2", "float"), ("note", "text"),
            ]), primary_key=("vital_id",))
            engine.insert_rows(table, [r for r in self.rows if r[0] % clients == client])
            engine.create_index(f"idx_{table}_patient", table, ["patient_id"])
            bigdawg.catalog.register_object(table, "postgres", "table", replace=True)
        return Deployment(bigdawg, _runtime(bigdawg, clients, journal),
                          {"relational": engine})

    def ops(self, client: int, clients: int) -> Iterator[Op]:
        """Client ``c`` owns table ``vitals_c``: the rows (and patients)
        congruent to c mod clients, so its expected answers depend on its own
        op prefix only."""
        table = f"vitals_{client}"
        s = self.sizes
        if s.patients % clients:
            raise ValueError("patients must be a multiple of the client count")
        rng = rng_for(self.seed, self.name, "ops", client)
        model = self.models[client] = oracle.VitalsModel(
            row for row in self.rows if row[0] % clients == client)
        live = sorted(model.rows)
        recent: list[int] = []
        next_id = s.vitals_rows + client
        # 20-op rounds in seeded order: 7 INSERT, 2 UPDATE, 1 DELETE, 7 point
        # reads (mostly of recently written keys), 3 per-patient aggregates.
        pattern = (["insert"] * 7 + ["update"] * 2 + ["delete"] + ["point"] * 7
                   + ["patient"] * 3)

        def pick_key() -> int:
            if recent and rng.random() < 0.7:
                return recent[int(rng.integers(len(recent)))]
            return live[int(rng.integers(len(live)))]

        while True:
            for kind in rng.permutation(pattern):
                kind = str(kind)
                if kind == "insert":
                    patient = int(rng.integers(s.patients // clients)) * clients + client
                    row = (next_id, patient, round(60.0 + 40.0 * float(rng.random()), 3),
                           round(90.0 + 10.0 * float(rng.random()), 3), f"w{next_id % 7}")
                    next_id += clients
                    model.insert(row)
                    live.append(row[0])
                    recent.append(row[0])
                    yield Op(kind, (
                        f"RELATIONAL(INSERT INTO {table} VALUES ({row[0]}, {row[1]}, "
                        f"{row[2]}, {row[3]}, '{row[4]}'))",), expected=([(1,)],), write=True)
                elif kind == "update":
                    key = pick_key()
                    while key not in model.rows:
                        key = pick_key()
                    rate = round(60.0 + 40.0 * float(rng.random()), 3)
                    model.set_heart_rate(key, rate)
                    recent.append(key)
                    yield Op(kind, (
                        f"RELATIONAL(UPDATE {table} SET heart_rate = {rate} "
                        f"WHERE vital_id = {key})",), expected=([(1,)],), write=True)
                elif kind == "delete":
                    key = pick_key()
                    while key not in model.rows:
                        key = pick_key()
                    model.delete(key)
                    yield Op(kind, (f"RELATIONAL(DELETE FROM {table} WHERE vital_id = {key})",),
                             expected=([(1,)],), write=True)
                elif kind == "point":
                    key = pick_key()   # may name a deleted row: expected is then empty
                    yield Op(kind, (f"RELATIONAL(SELECT * FROM {table} WHERE vital_id = {key})",),
                             expected=(model.point(key),))
                else:
                    patient = int(rng.integers(s.patients // clients)) * clients + client
                    yield Op(kind, (
                        "RELATIONAL(SELECT count(*) AS n, avg(heart_rate) AS hr, "
                        f"max(spo2) AS s FROM {table} WHERE patient_id = {patient})",),
                        expected=(model.patient_summary(patient),))
                del recent[:-256]

WORKLOADS = {w.name: w for w in (MimicServing, RelationalAnalytics, CrossIslandCast,
                                 DurableMixed)}

#: Smoke-test sizes: every code path of the full run in well under a second each.
TINY = {
    "mimic_serving": MimicSizes(patients=60, waveform_patients=3, waveform_samples=600,
                                ward_patients=16, distinct_queries=80, warmup_ops=16,
                                trace_ops=24),
    "relational_analytics": AnalyticsSizes(fact_rows=2800, dim_big_rows=400, warmup_ops=2,
                                           trace_ops=8),
    "cross_island_cast": CastSizes(readings_tables=2, events_tables=2, wave_arrays=2,
                                   signals=4, readings_samples=20, events_samples=10,
                                   wave_samples=40, warmup_ops=2, trace_ops=10),
    "durable_mixed": DurableSizes(vitals_rows=400, patients=20, warmup_ops=4, trace_ops=20),
}
