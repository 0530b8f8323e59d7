"""A miniature provenance-aware relational engine.

Just enough of a database to exercise the Section-3 research directions
on real algorithmic structure: relations carry per-tuple annotations from
any :class:`repro.db.provenance.Semiring`, and the operators (selection,
projection, natural join, union, group-by aggregation) propagate them by
the standard semiring rules — selection keeps annotations, projection ⊕s
merged duplicates, join ⊗s the participants.

Rows are plain tuples over a named schema; values are arbitrary hashable
Python objects (strings, numbers).

Each relation also carries a lazy
:class:`repro.db.index.RelationIndexes` container (``.indexes``). The
invalidation protocol: ``insert``/``delete`` maintain built indexes
incrementally — postings hold stable row stamps, so a delete removes
one posting per index and shifts none — and any other in-place
mutation of ``rows``/``annotations`` must call
:meth:`Relation.invalidate_indexes`.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Callable

from .index import RelationIndexes
from .provenance import Semiring, WhySemiring

__all__ = ["Relation"]


class Relation:
    """An annotated relation.

    Parameters
    ----------
    columns:
        Attribute names.
    rows:
        Tuples of values, one per attribute.
    semiring:
        Annotation domain (why-provenance by default).
    annotations:
        Per-row annotations; when omitted, rows are tagged as base tuples
        with ids ``name:i``.
    name:
        Relation name used in auto-generated tuple ids.
    """

    def __init__(
        self,
        columns: list[str],
        rows: list[tuple],
        semiring: Semiring | None = None,
        annotations: list | None = None,
        name: str = "R",
    ) -> None:
        self.columns = list(columns)
        self.rows = [tuple(r) for r in rows]
        for row in self.rows:
            if len(row) != len(self.columns):
                raise ValueError(
                    f"row {row} does not match schema {self.columns}"
                )
        self.semiring = semiring or WhySemiring()
        self.name = name
        if annotations is None:
            annotations = [
                self.semiring.tag(f"{name}:{i}") for i in range(len(self.rows))
            ]
        if len(annotations) != len(self.rows):
            raise ValueError("annotations do not match rows")
        self.annotations = list(annotations)
        self._indexes: RelationIndexes | None = None
        self._tag_counter = len(self.rows)

    # -- helpers ---------------------------------------------------------------

    def _col(self, column: str) -> int:
        try:
            return self.columns.index(column)
        except ValueError:
            raise KeyError(
                f"relation {self.name!r} has no column {column!r}; "
                f"available columns: {self.columns}"
            ) from None

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    def to_dicts(self) -> list[dict]:
        return [dict(zip(self.columns, row)) for row in self.rows]

    def __repr__(self) -> str:
        return f"Relation({self.name}, columns={self.columns}, n={len(self)})"

    # -- indexes & mutation ----------------------------------------------------

    @property
    def indexes(self) -> RelationIndexes:
        """Lazy per-relation index container (see :mod:`repro.db.index`)."""
        if self._indexes is None:
            self._indexes = RelationIndexes(self)
        return self._indexes

    def invalidate_indexes(self) -> None:
        """Drop built indexes after an out-of-band mutation."""
        if self._indexes is not None:
            self._indexes.invalidate()

    def insert(self, row, annotation=None) -> int:
        """Append one tuple, maintaining built indexes incrementally.

        Returns the new row id. When ``annotation`` is omitted the row
        is tagged as a fresh base tuple (ids never reuse a deleted
        tuple's tag).
        """
        row = tuple(row)
        if len(row) != len(self.columns):
            raise ValueError(
                f"row {row} does not match schema {self.columns}"
            )
        if annotation is None:
            annotation = self.semiring.tag(f"{self.name}:{self._tag_counter}")
        self._tag_counter += 1
        self.rows.append(row)
        self.annotations.append(annotation)
        if self._indexes is not None:
            self._indexes.on_insert(len(self.rows) - 1, row)
        return len(self.rows) - 1

    def delete(self, index: int) -> tuple:
        """Remove the tuple at ``index`` (negative counts from the end);
        built indexes drop the row's stamp — one posting each, O(log n),
        no id shifts — and are not rebuilt."""
        row = self.rows.pop(index)
        self.annotations.pop(index)
        if self._indexes is not None:
            self._indexes.on_delete(index, row)
        return row

    def subset(self, indices) -> "Relation":
        """O(k) sub-relation of the given row ids (shared schema and
        semiring, validation skipped — rows are already schema-checked)."""
        out = Relation.__new__(Relation)
        out.columns = list(self.columns)
        out.rows = [self.rows[i] for i in indices]
        out.semiring = self.semiring
        out.annotations = [self.annotations[i] for i in indices]
        out.name = self.name
        out._indexes = None
        out._tag_counter = len(out.rows)
        return out

    # -- operators ------------------------------------------------------------------

    def select(self, predicate: Callable[[dict], bool]) -> "Relation":
        """σ: keep rows satisfying ``predicate`` (given as a dict view)."""
        kept_rows, kept_annotations = [], []
        for row, annotation in zip(self.rows, self.annotations):
            if predicate(dict(zip(self.columns, row))):
                kept_rows.append(row)
                kept_annotations.append(annotation)
        return Relation(self.columns, kept_rows, self.semiring,
                        kept_annotations, self.name)

    def project(self, columns: list[str]) -> "Relation":
        """π with set semantics: duplicate results merge annotations by ⊕."""
        indices = [self._col(c) for c in columns]
        merged: dict[tuple, object] = {}
        order: list[tuple] = []
        for row, annotation in zip(self.rows, self.annotations):
            projected = tuple(row[i] for i in indices)
            if projected in merged:
                merged[projected] = self.semiring.plus(
                    merged[projected], annotation
                )
            else:
                merged[projected] = annotation
                order.append(projected)
        return Relation(columns, order, self.semiring,
                        [merged[r] for r in order], self.name)

    def join(self, other: "Relation") -> "Relation":
        """Natural join; matching pairs ⊗ their annotations."""
        shared = [c for c in self.columns if c in other.columns]
        other_only = [c for c in other.columns if c not in shared]
        my_shared = [self._col(c) for c in shared]
        their_shared = [other._col(c) for c in shared]
        their_rest = [other._col(c) for c in other_only]
        index: dict[tuple, list[int]] = defaultdict(list)
        for j, row in enumerate(other.rows):
            index[tuple(row[i] for i in their_shared)].append(j)
        out_rows, out_annotations = [], []
        for row, annotation in zip(self.rows, self.annotations):
            key = tuple(row[i] for i in my_shared)
            for j in index.get(key, []):
                out_rows.append(
                    row + tuple(other.rows[j][i] for i in their_rest)
                )
                out_annotations.append(
                    self.semiring.times(annotation, other.annotations[j])
                )
        return Relation(self.columns + other_only, out_rows, self.semiring,
                        out_annotations, f"{self.name}⋈{other.name}")

    def union(self, other: "Relation") -> "Relation":
        """∪ with set semantics: duplicates across operands merge by ⊕."""
        if self.columns != other.columns:
            raise ValueError("union requires identical schemas")
        combined = Relation(
            self.columns,
            self.rows + other.rows,
            self.semiring,
            self.annotations + other.annotations,
            f"{self.name}∪{other.name}",
        )
        return combined.project(self.columns)

    def group_by(
        self,
        keys: list[str],
        aggregate: str,
        column: str | None = None,
    ) -> "Relation":
        """γ: grouping with ``count``/``sum``/``avg``/``min``/``max``.

        The result's annotation per group is the ⊕ of member annotations
        — for why-provenance, the witnesses that put the group in the
        output. (Aggregate *values* need richer semimodule provenance;
        the tuple-Shapley module quantifies value contributions instead.)
        """
        if aggregate not in ("count", "sum", "avg", "min", "max"):
            raise ValueError(f"unknown aggregate {aggregate!r}")
        if aggregate != "count" and column is None:
            raise ValueError(f"{aggregate} needs a column")
        key_idx = [self._col(c) for c in keys]
        val_idx = self._col(column) if column is not None else None
        groups: dict[tuple, list[int]] = defaultdict(list)
        order: list[tuple] = []
        for i, row in enumerate(self.rows):
            key = tuple(row[j] for j in key_idx)
            if key not in groups:
                order.append(key)
            groups[key].append(i)
        out_rows, out_annotations = [], []
        for key in order:
            members = groups[key]
            if aggregate == "count":
                value = len(members)
            else:
                values = [self.rows[i][val_idx] for i in members]
                if aggregate == "sum":
                    value = sum(values)
                elif aggregate == "avg":
                    value = sum(values) / len(values)
                elif aggregate == "min":
                    value = min(values)
                else:
                    value = max(values)
            annotation = self.annotations[members[0]]
            for i in members[1:]:
                annotation = self.semiring.plus(annotation, self.annotations[i])
            out_rows.append(key + (value,))
            out_annotations.append(annotation)
        agg_name = f"{aggregate}({column or '*'})"
        return Relation(keys + [agg_name], out_rows, self.semiring,
                        out_annotations, f"γ({self.name})")
