"""The key-value engine facade: the Accumulo stand-in federated by BigDAWG.

Tables are sorted key-value stores with optional full-text indexing of their
values, scanned through server-side iterator stacks and split into tablets.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, Sequence

from repro.common.cancellation import check_cancelled
from repro.common.errors import DuplicateObjectError, ObjectNotFoundError, TypeMismatchError
from repro.common.schema import Column, Relation, Schema
from repro.common.types import DataType, common_type, infer_type
from repro.engines.base import DEFAULT_CHUNK_ROWS, Engine, EngineCapability, row_chunks
from repro.engines.keyvalue.iterators import ScanIterator, apply_stack
from repro.engines.keyvalue.store import Entry, ScanRange, SortedKeyValueStore
from repro.engines.keyvalue.tablet import TabletManager
from repro.engines.keyvalue.text_index import DocumentMatches, InvertedTextIndex

#: The columns of an export: one row per cell.
_CELL_COLUMNS = ["row", "family", "qualifier", "value"]


class KeyValueTable:
    """One Accumulo-style table: sorted store + tablets + optional text index."""

    def __init__(self, name: str, text_indexed: bool = False, split_threshold: int = 100_000) -> None:
        self.name = name
        self.store = SortedKeyValueStore()
        self.tablets = TabletManager(name, split_threshold=split_threshold)
        self.text_index: InvertedTextIndex | None = InvertedTextIndex() if text_indexed else None
        #: Widest type observed across stored values, maintained on put so
        #: exports can type the value column without rescanning the store.
        self.value_type: DataType | None = None
        self._typed_mutations = 0

    def put(self, row: str, family: str = "", qualifier: str = "", value: Any = None) -> Entry:
        entry = self.store.put(row, family, qualifier, value)
        # Account for exactly this mutation; incrementing (rather than syncing
        # to store.mutations) keeps earlier out-of-band changes detectable.
        self._typed_mutations += 1
        if value is not None:
            self.value_type = self._widen(self.value_type, value)
        if self.text_index is not None:
            # The newest version is the cell's document: text replaces the
            # old one, anything else leaves the cell with none.
            document = f"{family}:{qualifier}"
            if isinstance(value, str):
                self.text_index.add_document(row, document, value)
            else:
                self.text_index.remove_document(row, document)
        self.tablets.maybe_split(self.store)
        return entry

    def export_value_type(self) -> DataType | None:
        """The widest type across all stored values, None for an empty table.

        The store counts its mutations, so a mismatch with the mutations this
        table has accounted for means entries were written or removed behind
        the table's back; only then is a rescan needed — otherwise this is an
        O(1) lookup.  The rescan starts from scratch rather than the cached
        type, so the type can narrow again after out-of-band deletions.
        """
        if self.store.mutations != self._typed_mutations:
            value_type: DataType | None = None
            for entry in self.store.scan():
                if entry.value is None:
                    continue
                value_type = self._widen(value_type, entry.value)
                if value_type is DataType.TEXT:
                    break  # TEXT absorbs everything; no point scanning further
            self.value_type = value_type
            self._typed_mutations = self.store.mutations
        return self.value_type

    @staticmethod
    def _widen(current: DataType | None, value: Any) -> DataType:
        try:
            inferred = infer_type(value)
            return inferred if current is None else common_type(current, inferred)
        except TypeMismatchError:
            # Unclassifiable or incompatible values (bytes, containers,
            # timestamp+number mixes) still store fine; export as TEXT.
            return DataType.TEXT

    def scan(self, scan_range: ScanRange | None = None,
             iterators: list[ScanIterator] | None = None) -> list[Entry]:
        entries = self.store.scan(scan_range)
        if iterators:
            return list(apply_stack(entries, iterators))
        return list(entries)


class KeyValueEngine(Engine):
    """An in-process sorted key-value store with text search."""

    kind = "keyvalue"

    def __init__(self, name: str = "accumulo") -> None:
        super().__init__(name)
        self._tables: dict[str, KeyValueTable] = {}

    # ------------------------------------------------------------- Engine API
    @property
    def capabilities(self) -> EngineCapability:
        return EngineCapability.KEY_VALUE | EngineCapability.TEXT_SEARCH

    def list_objects(self) -> list[str]:
        return sorted(self._tables)

    def has_object(self, name: str) -> bool:
        return name.lower() in self._tables

    def export_schema(self, name: str) -> Schema:
        """The flattened export schema, widening the value column to a type
        every stored cell can coerce to (e.g. INTEGER + FLOAT -> FLOAT).

        The table maintains the widened type on write, so this is normally a
        metadata lookup; it falls back to a merge scan only when entries were
        written behind the table's back (directly into the store).
        """
        value_type = self.table(name).export_value_type()
        return Schema([
            *(Column(column, DataType.TEXT) for column in _CELL_COLUMNS[:3]),
            Column("value", DataType.TEXT if value_type is None else value_type),
        ])

    def export_chunks(self, name: str, chunk_size: int = DEFAULT_CHUNK_ROWS) -> Iterator[Relation]:
        """The table flattened to (row, family, qualifier, value) rows, one
        per cell (its newest version), in key order; each chunk coerces the
        values to :meth:`export_schema`'s value type."""
        store = self.table(name).store
        return row_chunks(self.export_schema(name), (
            (entry.key.row, entry.key.family, entry.key.qualifier, entry.value)
            for entry in store.latest()
        ), chunk_size)

    def import_chunks(self, name: str, schema: Schema, chunks: Iterable[Relation],
                      **options: Any) -> None:
        """Write cells chunk by chunk; the sorted store appends incrementally.

        A relation in the export's own layout (``row``, ``family``,
        ``qualifier``, ``value``) lands one cell per row, so an export
        imports back as the same table.  Any other relation lands one cell
        per non-key column: (its row key, family ``"attr"``, qualifier =
        the column name).  Options: ``row_column`` (whose value, as a
        string, is the row key; default the first column), ``text_indexed``
        (index TEXT values for the text island, default False) and
        ``replace``.  Nothing is validated: a cell holds any value, NULL
        included, and the export widens its value type to what is stored."""
        if name.lower() in self._tables and not options.get("replace", True):
            raise DuplicateObjectError(f"key-value table {name!r} already exists")
        table = KeyValueTable(name, text_indexed=bool(options.get("text_indexed", False)))
        names = schema.names
        if [n.lower() for n in names] == _CELL_COLUMNS:
            for chunk in chunks:
                for row, family, qualifier, value in zip(*map(chunk.column_values, range(4))):
                    table.put(str(row), family, qualifier, value)
        else:
            row_column = options.get("row_column", names[0])
            for chunk in chunks:
                for row in chunk:
                    row_key = str(row[row_column])
                    for column in names:
                        if column != row_column:
                            table.put(row_key, "attr", column, row[column])
        self._tables[name.lower()] = table

    def drop_object(self, name: str) -> None:
        if name.lower() not in self._tables:
            raise ObjectNotFoundError(f"key-value table {name!r} does not exist")
        del self._tables[name.lower()]

    def rename_object(self, old_name: str, new_name: str,
                      replace: bool = True) -> None:
        """O(1) rename: re-key the table (the CAST commit primitive)."""
        old_key, new_key = old_name.lower(), new_name.lower()
        if old_key == new_key:
            return
        table = self.table(old_name)
        if new_key in self._tables and not replace:
            raise DuplicateObjectError(f"key-value table {new_name!r} already exists")
        del self._tables[old_key]
        table.name = new_name
        table.tablets.table = new_name
        for tablet in table.tablets.tablets:
            tablet.table = new_name
        self._tables[new_key] = table

    # ----------------------------------------------------------------- tables
    def create_table(self, name: str, text_indexed: bool = False,
                     split_threshold: int = 100_000, replace: bool = False) -> KeyValueTable:
        key = name.lower()
        if key in self._tables and not replace:
            raise DuplicateObjectError(f"key-value table {name!r} already exists")
        table = KeyValueTable(name, text_indexed, split_threshold)
        self._tables[key] = table
        self.bump_write_version()
        return table

    def table(self, name: str) -> KeyValueTable:
        key = name.lower()
        if key not in self._tables:
            raise ObjectNotFoundError(f"key-value table {name!r} does not exist in {self.name!r}")
        return self._tables[key]

    # ------------------------------------------------------------------ access
    def put(self, table_name: str, row: str, family: str = "", qualifier: str = "",
            value: Any = None) -> Entry:
        entry = self.table(table_name).put(row, family, qualifier, value)
        self.bump_write_version()
        return entry

    def scan(self, table_name: str, scan_range: ScanRange | None = None,
             iterators: list[ScanIterator] | None = None) -> list[Entry]:
        check_cancelled()
        self.queries_executed += 1
        return self.table(table_name).scan(scan_range, iterators)

    def get_row(self, table_name: str, row: str) -> dict[str, Any]:
        """The newest version of every cell of a row as ``{family:qualifier: value}``."""
        check_cancelled()
        self.queries_executed += 1
        cells: dict[str, Any] = {}
        # Versions of a cell come newest first.
        for e in self.table(table_name).store.get_row(row):
            cells.setdefault(f"{e.key.family}:{e.key.qualifier}", e.value)
        return cells

    # ------------------------------------------------------------- text search
    def text_search(self, table_name: str, phrases: Sequence[str]) -> DocumentMatches:
        """Documents in the table containing every phrase; count is the
        first phrase's occurrences."""
        self.queries_executed += 1
        index = self._require_text_index(table_name)
        return index.documents_with_phrases(phrases)

    def rows_with_min_documents(self, table_name: str, phrases: Sequence[str],
                                minimum: int) -> list[str]:
        """Rows with at least ``minimum`` documents containing each phrase."""
        self.queries_executed += 1
        index = self._require_text_index(table_name)
        return index.rows_with_phrases(phrases, minimum)

    def _require_text_index(self, table_name: str) -> InvertedTextIndex:
        table = self.table(table_name)
        if table.text_index is None:
            raise ObjectNotFoundError(f"table {table_name!r} was not created with text_indexed=True")
        return table.text_index
