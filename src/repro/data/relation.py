"""In-memory relations: columnar-native storage with a derived tuple view.

The MPC model of the tutorial counts communication in *tuples*, and the
differential oracles compare results as multisets of tuples — but the
hot paths (routing, delivery, local joins, splitter search) are all
vectorized over numpy integer columns. A :class:`Relation` therefore
holds **either** representation as ground truth:

- *column-primary* (built by :meth:`Relation.from_columns`, and by the
  columnar operator fast paths): one ``int64``/``uint64`` array per
  attribute; the tuple view is materialized lazily and cached.
- *row-primary* (built by the tuple constructor, :meth:`Relation.wrap`,
  or any mutation): a list of plain Python tuples; the columnar view is
  extracted lazily and cached.

Coherency between the two views is governed by a **monotonic mutation
token** (:meth:`Relation.mutation_token`): every mutation —
:meth:`add`/:meth:`extend`, and the first hand-out of the live row list
by :meth:`rows` — bumps the token, and every derived cache records the
token it was built at. A relation whose row list has been exposed (or
adopted from a caller via :meth:`wrap`) is *borrowed*: in-place edits of
that list are invisible to any token, so borrowed relations never trust
an automatically extracted column cache — :meth:`prime_columns` is the
explicit override for internal code that owns the list.

The class offers the small relational-algebra surface the parallel
algorithms need: projection, selection, renaming, key extraction, degree
(frequency) statistics, and exact local joins for verifying distributed
results.

**Concurrency contract.** A relation may be read from many threads at
once — :meth:`rows_readonly`, :meth:`columns`, and the pure operators
(project/select/join/...) are safe under concurrent readers, including
when the lazy row/column derivations race: every cache fill, the
:meth:`rows` borrow/demote transition, and the mutation bookkeeping of
:meth:`add`/:meth:`extend` happen under a per-relation lock, so no
reader can ever observe a half-built view or a cleared-but-unreplaced
representation. *Mutations are not serialized against readers*: callers
that interleave :meth:`add`/:meth:`extend`/:meth:`rows` with concurrent
reads must provide external synchronization (the
:class:`repro.data.warehouse.RelationWarehouse` writer lock is the
service layer's way of doing exactly that) — the lock here guarantees
the relation's *internal* coherency, not snapshot isolation.
"""

from __future__ import annotations

import threading
from collections import Counter
from collections.abc import Callable, Iterable, Iterator, Sequence
from typing import Any

import numpy as np

from repro.data.schema import Schema
from repro.errors import SchemaError
from repro.kernels.columnar import key_columns
from repro.kernels.config import kernels_enabled
from repro.kernels.join import (
    code_key_columns,
    join_indices,
    join_rows_columnar,
    semijoin_mask,
)

Row = tuple[Any, ...]


def _as_column(values: Any) -> np.ndarray:
    """Normalize one column to a 1-D ``int64``/``uint64`` array."""
    array = np.asarray(values)
    if array.ndim != 1:
        raise SchemaError(f"a column must be 1-D, got shape {array.shape}")
    kind = array.dtype.kind
    if kind not in "biu":
        raise SchemaError(
            f"columns must hold integers, got dtype {array.dtype} "
            "(use the tuple constructor for non-integer data)"
        )
    if array.dtype == np.uint64:
        return array
    if array.dtype != np.int64:
        return array.astype(np.int64)
    return array


class Relation:
    """A named relation: schema + bag of tuples (duplicates allowed).

    >>> r = Relation("R", ["x", "y"], [(1, 2), (1, 3)])
    >>> len(r)
    2
    >>> r.project(["x"]).rows()
    [(1,), (1,)]
    """

    __slots__ = ("name", "schema", "_rows", "_cols", "_chunks", "_colcache",
                 "_version", "_borrowed", "_lock", "__weakref__")

    def __init__(
        self,
        name: str,
        schema: Schema | Sequence[str],
        rows: Iterable[Row] = (),
    ) -> None:
        self.name = name
        self.schema = schema if isinstance(schema, Schema) else Schema(schema)
        # Ground truth: _cols when not None (column-primary), else _chunks
        # (chunk-backed column-primary: per-column lists of blocks,
        # concatenated lazily on first whole-column access), else _rows.
        self._cols: list[np.ndarray] | None = None
        self._chunks: list[list[np.ndarray]] | None = None
        self._rows: list[Row] | None = []
        # (mutation token, extracted columns or None) — row-primary cache.
        self._colcache: tuple[int, list | None] | None = None
        self._version = 0
        self._borrowed = False
        # Guards the lazy derivations (row materialization, column
        # extraction), the borrow/demote transition of rows(), and the
        # mutation bookkeeping — see the module-level concurrency
        # contract. Never held while user code runs.
        self._lock = threading.Lock()
        arity = self.schema.arity
        for row in rows:
            t = tuple(row)
            if len(t) != arity:
                raise SchemaError(
                    f"tuple {t!r} has arity {len(t)}, schema {self.name} expects {arity}"
                )
            self._rows.append(t)

    # ------------------------------------------------------------------ basic

    @classmethod
    def from_columns(
        cls,
        name: str,
        schema: Schema | Sequence[str],
        columns: Sequence[Any],
    ) -> "Relation":
        """Build a column-primary relation from one array per attribute.

        Columns must be 1-D integer arrays (anything ``np.asarray`` turns
        into an integer dtype) of equal length; they are normalized to
        ``int64`` (``uint64`` is kept for values above the signed range).
        The tuple view is derived lazily — ``rows()[k][i]`` is exactly
        ``int(columns[i][k])``, so columnar construction is
        byte-identical to building the same tuples by hand.
        """
        out = cls(name, schema)
        if out.schema.arity == 0:
            raise SchemaError("from_columns needs at least one attribute")
        cols = [_as_column(c) for c in columns]
        if len(cols) != out.schema.arity:
            raise SchemaError(
                f"{len(cols)} columns for schema {name} of arity {out.schema.arity}"
            )
        length = len(cols[0])
        if any(len(c) != length for c in cols):
            raise SchemaError(
                f"column lengths differ: {[len(c) for c in cols]}"
            )
        out._cols = cols
        out._rows = None
        return out

    @classmethod
    def wrap(
        cls, name: str, schema: Schema | Sequence[str], rows: list[Row]
    ) -> "Relation":
        """Adopt ``rows`` as the tuple store without copying.

        The caller hands over the list but may still hold a reference, so
        the relation is *borrowed* from birth: automatically extracted
        column caches are never trusted (see :meth:`columns`);
        :meth:`prime_columns` installs a trusted view explicitly. The
        first row's arity is always checked so malformed input fails here
        with :class:`SchemaError` instead of deep inside a kernel; the
        full scan runs under ``__debug__``.
        """
        out = cls(name, schema)
        arity = out.schema.arity
        if rows and len(rows[0]) != arity:
            raise SchemaError(
                f"tuple {rows[0]!r} has arity {len(rows[0])}, schema {name} "
                f"expects {arity}"
            )
        if __debug__ and rows:
            for t in rows:
                if len(t) != arity:
                    raise SchemaError(
                        f"tuple {t!r} has arity {len(t)}, schema {name} "
                        f"expects {arity}"
                    )
        out._rows = rows
        out._borrowed = True
        return out

    def __getstate__(self) -> dict:
        # The per-relation lock is not picklable (and must not be
        # shared across processes anyway); a fresh one is created on
        # unpickle. Weak references stay with the original. Everything
        # else round-trips verbatim.
        return {
            slot: getattr(self, slot)
            for slot in self.__slots__
            if slot not in ("_lock", "__weakref__")
        }

    def __setstate__(self, state: dict) -> None:
        for slot, value in state.items():
            setattr(self, slot, value)
        self._lock = threading.Lock()

    def _solidify_locked(self) -> None:
        """Concatenate a chunk-backed view into ordinary backing arrays.

        Caller must hold :attr:`_lock` (or own the relation).  ``_cols``
        is installed *before* ``_chunks`` is dropped so an unlocked
        reader that saw ``_chunks is None`` always finds ``_cols`` set.
        """
        chunks = self._chunks
        if chunks is None:
            return
        self._cols = [
            np.empty(0, dtype=np.int64) if not blocks
            else blocks[0] if len(blocks) == 1
            else np.concatenate(blocks)
            for blocks in chunks
        ]
        self._chunks = None

    def _solidify(self) -> None:
        if self._chunks is None:
            return
        with self._lock:
            self._solidify_locked()

    def _derive_rows(self) -> list[Row]:
        """The tuple store (caller must hold :attr:`_lock` or own the relation)."""
        rows = self._rows
        if rows is None:
            self._solidify_locked()
            assert self._cols is not None
            rows = list(zip(*(c.tolist() for c in self._cols)))
            self._rows = rows
        return rows

    def _materialize(self) -> list[Row]:
        """The tuple store, deriving (and caching) it from the columns."""
        rows = self._rows
        if rows is None:
            # Lazy derivation races with other readers: take the lock,
            # re-check, and let exactly one thread build the view.
            with self._lock:
                rows = self._derive_rows()
        return rows

    def rows(self) -> list[Row]:
        """The tuple store as the *live* list.

        Handing out the live list means the caller could mutate it in
        place, invisibly to any token — so this conservatively bumps the
        mutation token once, demotes a column-primary relation to rows,
        and marks the relation *borrowed* (cached column extraction is
        never trusted again; see :meth:`columns`). Internal read-only
        code paths use :meth:`rows_readonly` to avoid the demotion.

        The borrow/demote transition happens atomically under the
        relation lock, so a concurrent :meth:`columns` reader sees
        either the pre-demotion columnar view or the post-demotion row
        view — never a state with both representations cleared.
        """
        with self._lock:
            rows = self._derive_rows()
            if not self._borrowed:
                self._version += 1
                self._borrowed = True
            elif self._cols is not None:
                self._version += 1
            self._cols = None
            self._colcache = None
            return rows

    def rows_readonly(self) -> list[Row]:
        """The tuple view for callers that promise not to mutate it.

        Unlike :meth:`rows` this leaves the representation, the mutation
        token, and the caches untouched — the accessor for internal hot
        paths (scatter, CSV writing, unions, oracles).
        """
        return self._materialize()

    def mutation_token(self) -> int:
        """Monotonic token bumped by every mutation (and live-list hand-out).

        Cache layers key derived state on ``(id(relation), token)``; a
        stale entry can then never be served after ``add``/``extend`` —
        see :meth:`repro.engine.Engine._align`.
        """
        return self._version

    @property
    def is_borrowed(self) -> bool:
        """Whether the row list is (or may be) aliased outside the relation.

        Borrowed relations re-extract columns on every :meth:`columns`
        call and should not have derived state cached against their
        token, because in-place list edits do not bump it.
        """
        return self._borrowed

    @property
    def is_columnar(self) -> bool:
        """Whether numpy columns are currently the primary representation.

        True for both solid (``_cols``) and chunk-backed (``_chunks``)
        column-primary relations.
        """
        return self._cols is not None or self._chunks is not None

    def columns(self) -> list | None:
        """The columnar view: one ``int64``/``uint64`` array per attribute.

        Column-primary relations return their backing arrays (zero cost,
        always coherent). Row-primary relations extract and cache the
        arrays keyed on the mutation token — never by length, so a
        same-length in-place rewrite after :meth:`rows` can no longer
        serve a stale view — and *borrowed* relations skip the cache
        entirely. ``None`` when any column holds non-integer values (the
        kernels then have no fast path for this relation).

        Safe under concurrent readers: the extraction (and its cache
        fill) runs under the relation lock, so a racing :meth:`rows`
        demotion or a second extractor can never interleave with it.
        """
        cols = self._cols
        if cols is not None:
            return cols
        with self._lock:
            self._solidify_locked()
            if self._cols is not None:
                return self._cols
            cached = self._colcache
            if cached is not None and cached[0] == self._version:
                return cached[1]
            cols = key_columns(self._rows, range(self.schema.arity))
            if not self._borrowed:
                self._colcache = (self._version, cols)
            return cols

    def prime_columns(self, cols: list | None) -> None:
        """Install a precomputed columnar view (e.g. a delivered side-car).

        ``cols`` must be one array per attribute, each as long as the
        relation; anything else is ignored rather than trusted. This is
        the explicit override for borrowed relations whose adopting code
        *knows* the arrays match the rows (a shuffle's side-car); the
        installed view is still dropped on the next token bump.
        """
        with self._lock:
            if self._cols is not None or self._chunks is not None:
                return
            if cols is not None and (
                len(cols) == self.schema.arity
                and all(len(c) == len(self._derive_rows()) for c in cols)
            ):
                self._colcache = (self._version, list(cols))

    def _cached_key_columns(self, idx: Sequence[int]) -> list | None:
        """The coherent columns at ``idx``, or ``None`` when they would cost.

        Never forces an extraction — callers that merely *prefer*
        columnar input use this so cache misses cost nothing.
        """
        if self._cols is not None:
            return [self._cols[i] for i in idx]
        cached = self._colcache
        if cached is None or cached[0] != self._version or cached[1] is None:
            return None
        return [cached[1][i] for i in idx]

    def __len__(self) -> int:
        # A chunk-backed relation answers from block lengths, no concat.
        chunks = self._chunks
        if chunks is not None:
            return sum(len(block) for block in chunks[0])
        if self._rows is not None:
            return len(self._rows)
        cols = self._cols
        assert cols is not None
        return len(cols[0])

    def __iter__(self) -> Iterator[Row]:
        return iter(self._materialize())

    def __contains__(self, row: object) -> bool:
        return row in set(self._materialize())

    def __eq__(self, other: object) -> bool:
        """Bag equality: same schema attributes and same multiset of tuples."""
        if isinstance(other, Relation):
            return (
                self.schema == other.schema
                and Counter(self._materialize()) == Counter(other._materialize())
            )
        return NotImplemented

    def __hash__(self) -> int:  # relations are mutable bags; identity hash
        return id(self)

    def __repr__(self) -> str:
        return f"Relation({self.name!r}, {list(self.schema.attributes)!r}, {len(self)} rows)"

    @property
    def attributes(self) -> tuple[str, ...]:
        return self.schema.attributes

    def add(self, row: Row) -> None:
        """Append one tuple (arity-checked); bumps the mutation token."""
        t = tuple(row)
        if len(t) != self.schema.arity:
            raise SchemaError(
                f"tuple {t!r} has arity {len(t)}, schema {self.name} expects "
                f"{self.schema.arity}"
            )
        with self._lock:
            rows = self._derive_rows()
            self._cols = None
            self._colcache = None
            self._version += 1
            rows.append(t)

    def extend(self, rows: Iterable[Row]) -> None:
        """Append many tuples (arity-checked); bumps the mutation token."""
        for row in rows:
            self.add(row)

    # ---------------------------------------------------- columnar plumbing

    def _adopt_columns(self, cols: list[np.ndarray]) -> "Relation":
        """Install already-normalized arrays as the primary representation."""
        self._cols = cols
        self._rows = None
        return self

    # ------------------------------------------------------------- operations

    def project(self, attributes: Sequence[str], name: str | None = None) -> "Relation":
        """Projection (bag semantics: duplicates are kept)."""
        self._solidify()
        idx = self.schema.indices(attributes)
        out = Relation(name or self.name, self.schema.project(attributes))
        if self._cols is not None:
            return out._adopt_columns([self._cols[i] for i in idx])
        out._rows = [tuple(row[i] for i in idx) for row in self._rows]
        return out

    def distinct(self, name: str | None = None) -> "Relation":
        """Set-semantics copy with duplicates removed (first occurrence kept)."""
        out = Relation(name or self.name, self.schema)
        out._rows = list(dict.fromkeys(self._materialize()))
        return out

    def select(self, predicate: Callable[[Row], bool], name: str | None = None) -> "Relation":
        """Selection by an arbitrary predicate on the raw tuple."""
        out = Relation(name or self.name, self.schema)
        out._rows = [row for row in self._materialize() if predicate(row)]
        return out

    def select_eq(self, attribute: str, value: Any, name: str | None = None) -> "Relation":
        """Selection ``attribute == value``."""
        self._solidify()
        i = self.schema.index(attribute)
        out = Relation(name or self.name, self.schema)
        if self._cols is not None and isinstance(value, (int, np.integer)) \
                and not isinstance(value, bool):
            try:
                mask = self._cols[i] == value
            except (OverflowError, TypeError):
                mask = None
            if mask is not None:
                return out._adopt_columns([c[mask] for c in self._cols])
        out._rows = [row for row in self._materialize() if row[i] == value]
        return out

    def rename(self, mapping: dict[str, str], name: str | None = None) -> "Relation":
        """Rename attributes (the store is copied, tuples/arrays shared)."""
        self._solidify()
        out = Relation(name or self.name, self.schema.rename(mapping))
        if self._cols is not None:
            return out._adopt_columns(list(self._cols))
        out._rows = list(self._rows)
        return out

    def key(self, attributes: Sequence[str]) -> list[Row]:
        """The key-tuple (projection) of every row, in row order."""
        self._solidify()
        idx = self.schema.indices(attributes)
        if self._cols is not None:
            return list(zip(*(self._cols[i].tolist() for i in idx)))
        return [tuple(row[i] for i in idx) for row in self._rows]

    def column(self, attribute: str) -> list[Any]:
        """All values of one attribute, in row order."""
        self._solidify()
        i = self.schema.index(attribute)
        if self._cols is not None:
            return self._cols[i].tolist()
        return [row[i] for row in self._rows]

    def degrees(self, attribute: str) -> Counter:
        """Frequency of each value of ``attribute`` (the tutorial's *degree*)."""
        return Counter(self.column(attribute))

    def heavy_hitters(self, attribute: str, threshold: float) -> set[Any]:
        """Values of ``attribute`` occurring at least ``threshold`` times.

        The tutorial calls a join value *heavy* when its degree is at least
        ``IN / p``; the caller supplies that threshold.
        """
        return {v for v, c in self.degrees(attribute).items() if c >= threshold}

    # ------------------------------------------------------ reference queries

    def join(self, other: "Relation", name: str = "J") -> "Relation":
        """Exact local natural join, used as ground truth in tests.

        The output schema is this schema followed by ``other``'s attributes
        that are not shared. When both sides are column-primary the join
        runs column-native end to end: key codes, match indices, and the
        output's columns are all array operations, and no tuple is ever
        materialized.
        """
        self._solidify()
        other._solidify()
        shared = self.schema.common(other.schema)
        left_idx = self.schema.indices(shared)
        right_idx = other.schema.indices(shared)
        extra = [a for a in other.schema.attributes if a not in self.schema]
        extra_idx = other.schema.indices(extra)

        out = Relation(name, Schema(list(self.schema.attributes) + extra))
        if not shared:
            out._rows = [
                l + r
                for l in self._materialize()
                for r in other._materialize()
            ]
            return out

        if kernels_enabled():
            if self._cols is not None and other._cols is not None:
                coded = code_key_columns(
                    [self._cols[i] for i in left_idx],
                    [other._cols[i] for i in right_idx],
                )
                if coded is not None:
                    left_pos, right_pos = join_indices(*coded)
                    return out._adopt_columns(
                        [c[left_pos] for c in self._cols]
                        + [other._cols[i][right_pos] for i in extra_idx]
                    )
            left_rows = self._materialize()
            right_rows = other._materialize()
            joined = join_rows_columnar(
                left_rows,
                right_rows,
                left_idx,
                right_idx,
                extra_idx,
                left_cols=self._cached_key_columns(left_idx),
                right_cols=other._cached_key_columns(right_idx),
            )
            if joined is not None:
                out._rows = joined
                return out

        index: dict[Row, list[Row]] = {}
        for row in other._materialize():
            index.setdefault(tuple(row[i] for i in right_idx), []).append(row)
        for row in self._materialize():
            k = tuple(row[i] for i in left_idx)
            for match in index.get(k, ()):
                out._rows.append(row + tuple(match[i] for i in extra_idx))
        return out

    def semijoin(self, other: "Relation", name: str | None = None) -> "Relation":
        """Exact local semijoin ``self ⋉ other`` on the shared attributes."""
        self._solidify()
        other._solidify()
        shared = self.schema.common(other.schema)
        if not shared:
            out = Relation(name or self.name, self.schema)
            out._rows = list(self._materialize()) if len(other) else []
            return out
        left_idx = self.schema.indices(shared)
        right_idx = other.schema.indices(shared)
        out = Relation(name or self.name, self.schema)
        if kernels_enabled():
            if self._cols is not None and other._cols is not None:
                coded = code_key_columns(
                    [self._cols[i] for i in left_idx],
                    [other._cols[i] for i in right_idx],
                )
                if coded is not None:
                    row_codes, member_codes = coded
                    mask = np.isin(row_codes, member_codes)
                    return out._adopt_columns([c[mask] for c in self._cols])
            rows = self._materialize()
            mask = semijoin_mask(
                rows, left_idx,
                [tuple(r[i] for i in right_idx) for r in other],
            )
            if mask is not None:
                out._rows = [row for row, keep in zip(rows, mask) if keep]
                return out
        right_keys = {
            tuple(row[i] for i in right_idx) for row in other._materialize()
        }
        out._rows = [
            row
            for row in self._materialize()
            if tuple(row[i] for i in left_idx) in right_keys
        ]
        return out

    def sorted_by(self, attributes: Sequence[str], name: str | None = None) -> "Relation":
        """Copy sorted lexicographically by the given attributes."""
        self._solidify()
        idx = self.schema.indices(attributes)
        out = Relation(name or self.name, self.schema)
        if self._cols is not None:
            # lexsort's last key is primary; reversing matches the tuple
            # key order, and its stability matches sorted()'s.
            order = np.lexsort([self._cols[i] for i in reversed(idx)])
            return out._adopt_columns([c[order] for c in self._cols])
        out._rows = sorted(
            self._rows, key=lambda row: tuple(row[i] for i in idx)
        )
        return out


def union_all(name: str, relations: Sequence[Relation]) -> Relation:
    """Bag union of relations sharing one schema."""
    if not relations:
        raise SchemaError("union_all needs at least one relation")
    schema = relations[0].schema
    for r in relations[1:]:
        if r.schema != schema:
            raise SchemaError(
                f"union_all schemas differ: {schema} vs {r.schema} ({r.name})"
            )
    out = Relation(name, schema)
    if schema.arity and all(r.is_columnar for r in relations):
        per_position: list[list[np.ndarray]] | None = []
        for i in range(schema.arity):
            blocks: list[np.ndarray] = []
            for r in relations:
                chunks = r._chunks
                if chunks is not None:
                    blocks.extend(chunks[i])
                    continue
                cols = r._cols
                if cols is None:  # raced with a rows() demotion
                    per_position = None
                    break
                blocks.append(cols[i])
            if per_position is None:
                break
            per_position.append(blocks)
        if per_position is not None and all(
            len({b.dtype for b in blocks}) <= 1 for blocks in per_position
        ):
            # Zero-copy: adopt the blocks as a chunk-backed view; the
            # concatenation happens only if a consumer asks for whole
            # columns.
            out._chunks = per_position
            out._rows = None
            return out
    for r in relations:
        out._rows.extend(r.rows_readonly())
    return out
