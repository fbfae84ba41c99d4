"""Block-nested-loops join machinery shared by all access paths.

The paper assumes joins execute in a block-nested-loops (BNL) fashion
(Section IV).  For the binary join the outer loop reads the dimension
relation ``R`` one block of pages at a time and, per block, scans the
fact relation ``S`` for tuples whose foreign key falls in the block —
exactly Fig. 1(b)/(c).  A full pass therefore costs
``|R| + ceil(|R|/BlockSize)·|S|`` page reads, the quantity Section V-A's
I/O analysis is built on.

For multi-way star joins the paper gives no I/O analysis; we follow the
natural generalization: each (small) dimension relation is read once per
pass and probed in memory while the fact relation streams by in blocks,
costing ``|S| + Σ|R_i|`` reads per pass.

Every joined tuple is emitted exactly once per pass, grouped into
:class:`JoinBlock` units.  A block keeps the join in *normalized* form:
the raw fact rows, each dimension's page-block feature rows with their
keys, and — the factorized execution core's contract — one
:class:`~repro.fx.dedup.DedupPlan` deduplicating the block's FK
columns.  :func:`~repro.join.batches.block_batch` turns a block into
a batch, inlining every dimension (S- algorithms) or none (F-
algorithms); both read the same plan, the same way serving batches
thread their plan through ``BatchPlanner → predict()``.

A fit makes many passes (one per EM iteration or epoch) and
everything a pass derives from *key columns* — which fact rows match an
outer block, the block's dedup and group order, where its distinct
dimension rows sit — is the same every time.  A :class:`JoinIndex`
records that on the first pass over each block and replaces probe →
mask → sort → ``codes_for_keys`` with one ``take`` per chunk after.
It holds integers only, never feature values.  The database keeps the
index of the join it last trained on, so a later fit over the same join
replays from its first pass: an access opened as a context manager
borrows it (:class:`JoinAccess`).

A binary pass whose every outer block is recorded no longer needs ``S``
once per block — ``S`` was rescanned only to probe it.  It scans ``S``
once per *group* of consecutive blocks (in the pass's block order)
whose recorded fact rows fit the database's memory budget, the buffer
pool's ``capacity_pages`` (:func:`group_blocks`), and yields the same
blocks in the same order with the same random draws: ``|R| + g·|S|``
pages, ``g`` the group count — Section V-A's count when no two blocks'
rows fit together, ``|R| + |S|`` when all of ``S`` does.  A recording
pass, or one with any block not yet recorded, is the paper's BNL.

Blocks whose inner scan matched no fact tuples are not emitted: the
page reads are already charged by the time emptiness is known, and an
empty batch carries no work for any consumer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.errors import JoinError
from repro.fx.dedup import DedupPlan
from repro.join.spec import JoinSpec, ResolvedJoin
from repro.linalg.groupsum import codes_for_keys
from repro.storage.catalog import Database
from repro.storage.relation import Relation

DEFAULT_BLOCK_PAGES = 64


def sids_and_targets(
    relation: Relation, rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray | None]:
    """What every batch carries beside its features, projected from
    already-read ``rows`` of ``relation`` (the fact relation, or the
    materialized ``T``): the key column — row numbers where the schema
    declares none — and the TARGET column, ``None`` likewise."""
    schema = relation.schema
    return (
        relation.project_keys(rows)
        if schema.key_column is not None
        else np.arange(rows.shape[0]),
        relation.project_targets(rows)
        if schema.target_column is not None
        else None,
    )


@dataclass
class JoinBlock:
    """One outer-block's worth of joined tuples, in normalized form.

    ``fact_rows`` are raw fact-relation rows (all schema columns);
    ``dim_features[i]`` / ``dim_keys[i]`` hold the ``i``-th dimension
    page-block's feature rows and primary keys; ``plan`` is the
    :class:`~repro.fx.dedup.DedupPlan` of the block's FK columns — the
    one ``(unique, inverse)`` sort per dimension that every consumer of
    this block shares — and ``positions[i]`` are the rows of
    ``dim_features[i]`` holding the plan's distinct RIDs.
    """

    fact_rows: np.ndarray
    dim_features: list[np.ndarray]
    dim_keys: list[np.ndarray]
    plan: DedupPlan
    positions: tuple[np.ndarray, ...]

    @property
    def n(self) -> int:
        return self.fact_rows.shape[0]

    @property
    def fks(self) -> list[np.ndarray]:
        """The raw FK column of the block's fact rows, per dimension."""
        return [dim.unique.take(dim.inverse) for dim in self.plan.dims]

    def distinct_rows(self, dim_index: int) -> np.ndarray:
        """Dimension ``dim_index``'s feature rows at the plan's distinct
        RIDs (sorted-RID order) — shared by densify and factorize."""
        return self.dim_features[dim_index].take(
            self.positions[dim_index], axis=0
        )


@dataclass
class _BlockKeys:
    """What one outer block's key columns determine, in storage order.

    ``offsets`` (binary joins) are the matched row offsets within each
    inner fact chunk; ``plan`` is ``None`` for a block nothing matched.
    """

    offsets: list[np.ndarray] | None
    plan: DedupPlan | None = None
    positions: tuple[np.ndarray, ...] = ()

    @property
    def rows(self) -> int:
        """Fact rows the block matched (binary joins)."""
        return sum(part.size for part in self.offsets)

    @classmethod
    def record(
        cls,
        fact_rows: np.ndarray,
        dim_keys: list[np.ndarray],
        fk_positions: list[int],
        offsets: list[np.ndarray] | None = None,
    ) -> "_BlockKeys":
        """Dedup the block's FK columns, in storage order, exactly once."""
        plan = DedupPlan.for_batch(
            [fact_rows[:, position] for position in fk_positions]
        )
        positions = tuple(
            codes_for_keys(dim.unique, keys).astype(np.int32)
            for dim, keys in zip(plan.dims, dim_keys)
        )
        return cls(offsets, plan, positions)

    @property
    def nbytes(self) -> int:
        arrays = [*(self.offsets or ()), *self.positions]
        dims = self.plan.dims if self.plan is not None else ()
        return sum(a.nbytes for a in arrays) + sum(d.nbytes for d in dims)

    def block(
        self,
        fact_rows: np.ndarray,
        dim_features: list[np.ndarray],
        dim_keys: list[np.ndarray],
        shuffle: bool,
        rng: np.random.Generator | None,
    ) -> JoinBlock:
        """Package the block; a shuffled pass permutes the recorded
        plan instead of deriving one from the permuted rows."""
        plan = self.plan
        if shuffle and fact_rows.shape[0] > 1:
            permutation = rng.permutation(fact_rows.shape[0])
            fact_rows = fact_rows.take(permutation, axis=0)
            plan = plan.permuted(permutation)
        return JoinBlock(
            fact_rows, dim_features, dim_keys, plan, self.positions
        )


@dataclass
class _Pass:
    """One pass's state beyond its block order: the blocks earlier
    passes recorded (read where present, filled where not), the fact
    pages a replay may hold at once, and the scans of the fact relation
    the pass has made."""

    recorded: dict[int, _BlockKeys]
    budget_pages: int = 0
    fact_scans: int = 0


def iter_join_blocks(
    resolved: ResolvedJoin,
    *,
    block_pages: int = DEFAULT_BLOCK_PAGES,
    shuffle: bool = False,
    rng: np.random.Generator | None = None,
) -> Iterator[JoinBlock]:
    """Yield the join result one :class:`JoinBlock` at a time.

    With ``shuffle=True`` the outer block order and the tuple order
    within each block are permuted (the paper's per-epoch key
    permutation for SGD, Section VI); pass a seeded ``rng`` for
    reproducibility.  Each emitted block carries its
    :class:`~repro.fx.dedup.DedupPlan` (its inverse maps the emitted
    row order).  One pass that remembers nothing; the access paths
    iterate through a :class:`JoinIndex` instead.
    """
    return _iter_blocks(resolved, block_pages, shuffle, rng, _Pass({}))


def _iter_blocks(
    resolved: ResolvedJoin,
    block_pages: int,
    shuffle: bool,
    rng: np.random.Generator | None,
    state: _Pass,
) -> Iterator[JoinBlock]:
    """One pass; ``state.recorded`` maps an outer block's first page to
    its :class:`_BlockKeys`."""
    if block_pages <= 0:
        raise JoinError(f"block_pages must be positive, got {block_pages}")
    if shuffle and rng is None:
        rng = np.random.default_rng()
    if resolved.num_dimensions == 1:
        yield from _iter_binary(resolved, block_pages, shuffle, rng, state)
    else:
        yield from _iter_multiway(resolved, block_pages, shuffle, rng, state)


def _block_starts(
    npages: int,
    block_pages: int,
    shuffle: bool,
    rng: np.random.Generator | None,
) -> list[int]:
    starts = list(range(0, npages, block_pages))
    if shuffle:
        starts = [starts[i] for i in rng.permutation(len(starts))]
    return starts


def group_blocks(rows: list[int], budget_rows: int) -> list[range]:
    """Split blocks of ``rows[i]`` fact rows, in order, into runs of
    consecutive blocks holding at most ``budget_rows`` rows together.
    Greedy: a run takes blocks until the next would overflow it; a block
    that alone exceeds the budget is a run of its own."""
    groups: list[range] = []
    start = held = 0
    for i, count in enumerate(rows):
        if i > start and held + count > budget_rows:
            groups.append(range(start, i))
            start, held = i, 0
        held += count
    if rows:
        groups.append(range(start, len(rows)))
    return groups


def _outer_block(
    relation: Relation, first_page: int, block_pages: int
) -> tuple[np.ndarray, np.ndarray]:
    """The keys and features of the outer block at ``first_page``."""
    npages = min(block_pages, relation.npages - first_page)
    rows = relation.heap.read_pages(first_page, npages)
    return relation.project_keys(rows), relation.project_features(rows)


def _iter_binary(
    resolved: ResolvedJoin,
    block_pages: int,
    shuffle: bool,
    rng: np.random.Generator | None,
    state: _Pass,
) -> Iterator[JoinBlock]:
    """Fig. 1(b)/(c): dimension relation outer, fact relation inner."""
    dim = resolved.dimensions[0].relation
    fact = resolved.fact
    recorded = state.recorded
    starts = _block_starts(dim.npages, block_pages, shuffle, rng)
    if all(first_page in recorded for first_page in starts):
        yield from _replay_binary(
            dim, fact, starts, block_pages, shuffle, rng, state
        )
        return
    fk_position = fact.schema.fk_position(dim.name)
    for first_page in starts:
        dim_keys, dim_feats = _outer_block(dim, first_page, block_pages)
        # Inner scan of the fact relation, keeping tuples whose FK
        # matches a key in the current outer block: probed on the
        # block's first pass, taken at the recorded offsets after.
        keys = recorded.get(first_page)
        offsets = [] if keys is None else keys.offsets
        matched_chunks = []
        state.fact_scans += 1
        for i, fact_chunk in enumerate(fact.iter_blocks(block_pages)):
            if keys is None:
                fk_values = fact_chunk[:, fk_position].astype(np.int64)
                offsets.append(
                    np.flatnonzero(np.isin(fk_values, dim_keys)).astype(
                        np.int32
                    )
                )
            if offsets[i].size:
                matched_chunks.append(fact_chunk.take(offsets[i], axis=0))
        if not matched_chunks:      # remembered too: nothing to probe for
            recorded.setdefault(first_page, _BlockKeys(offsets))
            continue
        fact_rows = np.concatenate(matched_chunks, axis=0)
        if keys is None:
            keys = recorded[first_page] = _BlockKeys.record(
                fact_rows, [dim_keys], [fk_position], offsets
            )
        yield keys.block(fact_rows, [dim_feats], [dim_keys], shuffle, rng)


def _replay_binary(
    dim: Relation,
    fact: Relation,
    starts: list[int],
    block_pages: int,
    shuffle: bool,
    rng: np.random.Generator | None,
    state: _Pass,
) -> Iterator[JoinBlock]:
    """A pass over blocks all recorded: one scan of the fact relation
    per :func:`group_blocks` run of ``starts`` within the budget, each
    block's rows taken from every chunk at its recorded offsets; then
    each block's dimension pages, read as the BNL reads them — every
    block's, so the pass reads all of ``R``."""
    keys = [state.recorded[first_page] for first_page in starts]
    budget_rows = state.budget_pages * fact.heap.rows_per_page
    for group in group_blocks([k.rows for k in keys], budget_rows):
        members = keys[group.start:group.stop]
        fact_rows = [np.empty((k.rows, fact.heap.ncols)) for k in members]
        filled = [0] * len(members)
        state.fact_scans += 1
        for i, fact_chunk in enumerate(fact.iter_blocks(block_pages)):
            for j, block_keys in enumerate(members):
                offsets = block_keys.offsets[i]
                if offsets.size:
                    stop = filled[j] + offsets.size
                    # Recorded offsets are in range, so "clip" clamps
                    # nothing; unlike "raise" it does not buffer ``out``.
                    fact_chunk.take(
                        offsets, axis=0, out=fact_rows[j][filled[j]:stop],
                        mode="clip",
                    )
                    filled[j] = stop
        for j, block_keys in enumerate(members):
            dim_keys, dim_feats = _outer_block(
                dim, starts[group.start + j], block_pages
            )
            rows, fact_rows[j] = fact_rows[j], None   # let go once yielded
            if rows.shape[0]:
                yield block_keys.block(
                    rows, [dim_feats], [dim_keys], shuffle, rng
                )


def _iter_multiway(
    resolved: ResolvedJoin,
    block_pages: int,
    shuffle: bool,
    rng: np.random.Generator | None,
    state: _Pass,
) -> Iterator[JoinBlock]:
    """Star join: dimensions resident per pass, fact relation streaming."""
    fact = resolved.fact
    recorded = state.recorded
    dim_keys: list[np.ndarray] = []
    dim_feats: list[np.ndarray] = []
    fk_positions: list[int] = []
    for dim in resolved.dimensions:
        rows = dim.relation.scan()
        dim_keys.append(dim.relation.project_keys(rows))
        dim_feats.append(dim.relation.project_features(rows))
        fk_positions.append(fact.schema.fk_position(dim.relation.name))
    state.fact_scans += 1
    for first_page in _block_starts(fact.npages, block_pages, shuffle, rng):
        npages = min(block_pages, fact.npages - first_page)
        fact_rows = fact.heap.read_pages(first_page, npages)
        if fact_rows.shape[0] == 0:
            continue
        keys = recorded.get(first_page)
        if keys is None:
            keys = recorded[first_page] = _BlockKeys.record(
                fact_rows, dim_keys, fk_positions
            )
        yield keys.block(
            fact_rows, list(dim_feats), list(dim_keys), shuffle, rng
        )


class JoinIndex:
    """What passes over one join have learned from its key columns.

    Per outer block: the matched fact-row offsets of every inner chunk
    (binary joins), the block's storage-order
    :class:`~repro.fx.dedup.DedupPlan` with its memoized group index,
    and the positions of its distinct dimension rows — integers only,
    16 B per joined tuple (``12·q`` for a ``q``-way star) plus 20 B per
    distinct RID a block references, next to the ``K·8`` B per tuple of
    ``γ`` that EM retains anyway.  Valid for one ``(row_version, nrows)``
    of the fact and every dimension relation: a pass that starts under
    another drops everything and records afresh.  A pass abandoned
    mid-way keeps what it recorded; the next fills in the rest.

    Once every outer block of a binary join is recorded, a pass scans
    the fact relation once per group of consecutive blocks whose rows
    fit the database's buffer pool (``capacity_pages`` pages of fact
    rows), not once per block; ``fact_scans`` counts the last pass's
    scans.

    ``key`` — the block size and the joined :class:`Relation` objects,
    which compare by identity — is what the database's slot matches on:
    a relation dropped and re-created under its old name, at its old row
    count and row version 0, is another relation.  ``passes_replayed``
    and ``rebuilds`` count the current borrower's passes only.
    """

    def __init__(
        self, db: Database, resolved: ResolvedJoin, block_pages: int
    ) -> None:
        self._db = db
        self.resolved = resolved
        self.block_pages = block_pages
        self.relations = (
            resolved.fact, *(d.relation for d in resolved.dimensions)
        )
        self.key = (block_pages, *self.relations)
        self._recorded: dict[int, _BlockKeys] = {}
        self._version: tuple | None = None
        self._complete = False
        self.lend()

    def lend(self) -> None:
        """Start a new borrower's counters."""
        self.passes_replayed = 0
        self.rebuilds = 0
        self._pass = _Pass({})

    def clear(self) -> None:
        """Forget everything recorded (the next pass records afresh)."""
        self._recorded = {}
        self._complete = False

    def _versions(self) -> tuple:
        return tuple(
            (self._db.row_version(relation.name), relation.nrows)
            for relation in self.relations
        )

    def current(self) -> bool:
        """Whether the index still describes the database's rows: every
        joined relation is still the one registered under its name, at
        the versions the last pass started under."""
        db = self._db
        return all(
            relation.name in db and db.relation(relation.name) is relation
            for relation in self.relations
        ) and self._version == self._versions()

    def blocks(
        self, shuffle: bool = False, rng: np.random.Generator | None = None
    ) -> Iterator[JoinBlock]:
        """One pass over the join, replaying what earlier passes recorded."""
        version = self._versions()
        if version != self._version:
            self.rebuilds += bool(self._recorded)
            self.clear()
            self._version = version
        self.passes_replayed += self._complete
        self._pass = _Pass(
            self._recorded, self._db.buffer_pool.capacity_pages
        )
        yield from _iter_blocks(
            self.resolved, self.block_pages, shuffle, rng, self._pass
        )
        self._complete = True

    def stats(self) -> dict:
        """``{blocks, bytes}`` held; ``{passes_replayed, rebuilds}`` of
        the current borrower and the ``fact_scans`` of its last pass."""
        return {
            "blocks": len(self._recorded),
            "bytes": sum(k.nbytes for k in self._recorded.values()),
            "passes_replayed": self.passes_replayed,
            "rebuilds": self.rebuilds,
            "fact_scans": self._pass.fact_scans,
        }


class JoinAccess:
    """Constructor and pass plumbing the S- and F- access paths share.

    Opened as a context manager, an access borrows the database's
    :class:`JoinIndex` for its join — taken out of the slot, so no two
    passes ever share one — and hands it back on exit, where it fills
    the slot unless it has gone stale; a concurrent access over the same
    join records a private index meanwhile.  Constructed bare, an access
    records a private index and leaves the database's alone.

    Parameters
    ----------
    db:
        The database holding the base relations.
    spec:
        The star join to execute.
    block_pages:
        Pages per BNL outer block (the paper's ``BlockSize``).
    shuffle:
        Permute block order and intra-block tuple order per pass (the
        paper's SGD key permutation).
    seed:
        Base seed; pass ``epoch`` to ``batches`` to vary the
        permutation per epoch deterministically.
    """

    def __init__(
        self,
        db: Database,
        spec: JoinSpec,
        *,
        block_pages: int = DEFAULT_BLOCK_PAGES,
        shuffle: bool = False,
        seed: int = 0,
    ) -> None:
        self.resolved = spec.resolve(db)
        self.block_pages = block_pages
        self.shuffle = shuffle
        self.seed = seed
        self._db = db
        self.index = JoinIndex(db, self.resolved, block_pages)

    def __enter__(self) -> "JoinAccess":
        held = self._db.take_join_index(self.index.key)
        if held is not None:
            held.lend()
            self.index = held
        return self

    def __exit__(self, *exc_info) -> None:
        self._db.keep_join_index(self.index)

    @property
    def num_rows(self) -> int:
        return self.resolved.num_rows

    @property
    def has_target(self) -> bool:
        return self.resolved.has_target

    def blocks(self, epoch: int = 0) -> Iterator[JoinBlock]:
        """One full pass over the join result, block by block."""
        rng = (
            np.random.default_rng((self.seed, epoch))
            if self.shuffle
            else None
        )
        return self.index.blocks(self.shuffle, rng)
