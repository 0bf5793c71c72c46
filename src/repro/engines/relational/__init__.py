"""The relational engine (PostgreSQL stand-in): SQL over heap tables — a row store
to write and look up, a typed columnar snapshot to scan."""

from repro.engines.relational.btree import BTreeIndex
from repro.engines.relational.engine import RelationalEngine
from repro.engines.relational.storage import HeapTable

__all__ = ["BTreeIndex", "HeapTable", "RelationalEngine"]
