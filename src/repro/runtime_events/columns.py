"""Structure-of-arrays record batches: the columnar hot-path core.

A :class:`ColumnBatch` carries one batch of records as parallel columns
(key vector, value vector, optional per-record timestamp vector) instead of
a list of per-record Python objects.  Everything the routing and apply
paths do per record — splitmix64 bin hashing, owner lookup, destination
grouping, count folding — then amortizes over whole arrays.

Two representations share one interface:

* **numpy** (when importable): columns are ``ndarray``s and the kernels
  below vectorize; this is the fast path.
* **pure ``array``** (stdlib) fallback: columns are ``array('Q')``/
  ``array('q')`` and the kernels loop — bit-identical results, no third-
  party dependency.

The active representation is chosen once at import; tests monkeypatch the
module-global ``_np`` to ``None`` to exercise the fallback.

Correctness contract: every kernel here is *bit-identical* to its scalar
reference (the per-record splitmix64 ``bin_fn`` in
``repro.megaphone.operators``, the ``Lcg`` in ``repro.harness.openloop``,
dict-insertion destination grouping in F).  The equivalence tests pin this;
the simulation must not be able to tell the representations apart.
"""

from __future__ import annotations

from array import array
from typing import Iterator, Optional, Sequence

try:  # pragma: no cover - exercised via monkeypatch in tests
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None

_MASK64 = (1 << 64) - 1

# Column kinds.  "kv" batches decode to ``(key, val)`` tuples (the count
# workloads); "obj" batches carry arbitrary Python records in ``vals`` with
# a precomputed integer routing key per record (the NEXMark relations).
KIND_KV = "kv"
KIND_OBJ = "obj"


def numpy_active() -> bool:
    """Whether the numpy representation is in use."""
    return _np is not None


def active_representation() -> str:
    """Name of the active columnar representation (for reports/CLI)."""
    return "columnar-numpy" if _np is not None else "columnar-array"


def _key_column(values: Sequence[int]):
    if _np is not None:
        return _np.asarray(values, dtype=_np.uint64)
    return array("Q", values)


def _val_column(values: Sequence[int]):
    if _np is not None:
        return _np.asarray(values, dtype=_np.int64)
    return array("q", values)


class ColumnBatch:
    """One record batch as structure-of-arrays columns.

    ``keys`` is always an unsigned 64-bit integer column (the routing key).
    For ``kind="kv"`` ``vals`` is a signed 64-bit column and record ``i``
    decodes to ``(int(keys[i]), int(vals[i]))``.  For ``kind="obj"``
    ``vals`` is a plain list of Python records and record ``i`` decodes to
    ``vals[i]`` (the keys were precomputed by the producer).  ``times`` is
    an optional per-record event-time column; ``None`` means every record
    shares the batch's dataflow timestamp (the common case — batches are
    per-epoch, so the column would be constant).
    """

    __slots__ = ("keys", "vals", "kind", "times")

    def __init__(self, keys, vals, kind: str = KIND_KV, times=None) -> None:
        self.keys = keys
        self.vals = vals
        self.kind = kind
        self.times = times

    # -- construction --------------------------------------------------------

    @classmethod
    def from_kv(cls, keys: Sequence[int], vals: Sequence[int]) -> "ColumnBatch":
        """Encode parallel key/value sequences."""
        return cls(_key_column(keys), _val_column(vals), KIND_KV)

    @classmethod
    def from_records(cls, records: Sequence) -> "ColumnBatch":
        """Encode ``[(key, val), ...]`` pairs."""
        return cls.from_kv([r[0] for r in records], [r[1] for r in records])

    @classmethod
    def from_objects(cls, objs: list, keys: Sequence[int]) -> "ColumnBatch":
        """Wrap arbitrary records with precomputed integer routing keys."""
        return cls(_key_column(keys), list(objs), KIND_OBJ)

    # -- record views --------------------------------------------------------

    def __len__(self) -> int:
        return len(self.keys)

    def __iter__(self) -> Iterator:
        return iter(self.to_records())

    def __eq__(self, other) -> bool:
        if type(other) is ColumnBatch:
            return self.kind == other.kind and self.to_records() == other.to_records()
        if isinstance(other, list):
            return self.to_records() == other
        return NotImplemented

    def __repr__(self) -> str:
        return f"ColumnBatch(kind={self.kind!r}, len={len(self.keys)})"

    def to_records(self) -> list:
        """Decode to the per-record representation."""
        if self.kind == KIND_OBJ:
            return list(self.vals)
        keys, vals = self.keys, self.vals
        if _np is not None and isinstance(keys, _np.ndarray):
            return list(zip(keys.tolist(), vals.tolist()))
        return list(zip(keys, vals))

    def key_list(self) -> list:
        """The key column as a list of Python ints."""
        keys = self.keys
        if _np is not None and isinstance(keys, _np.ndarray):
            return keys.tolist()
        return list(keys)

    # -- column surgery ------------------------------------------------------

    def take(self, sel) -> "ColumnBatch":
        """A new batch with the records selected by index array ``sel``."""
        keys = self.keys
        if _np is not None and isinstance(keys, _np.ndarray):
            new_keys = keys[sel]
            if self.kind == KIND_OBJ:
                vals = self.vals
                new_vals = [vals[i] for i in sel.tolist()]
            else:
                new_vals = self.vals[sel]
            new_times = self.times[sel] if self.times is not None else None
        else:
            idx = list(sel)
            new_keys = array("Q", (keys[i] for i in idx))
            if self.kind == KIND_OBJ:
                vals = self.vals
                new_vals = [vals[i] for i in idx]
            else:
                vals = self.vals
                new_vals = array("q", (vals[i] for i in idx))
            times = self.times
            new_times = array("q", (times[i] for i in idx)) if times is not None else None
        return ColumnBatch(new_keys, new_vals, self.kind, new_times)

    def slice(self, lo: int, hi: int) -> "ColumnBatch":
        """A new batch with the contiguous record range ``[lo, hi)``.

        Columns are sliced, not fancy-indexed: on the numpy representation
        this is a view, which makes splitting a destination-sorted batch
        into per-destination segments nearly free.
        """
        times = self.times
        return ColumnBatch(
            self.keys[lo:hi],
            self.vals[lo:hi],
            self.kind,
            times[lo:hi] if times is not None else None,
        )

    @classmethod
    def concat(cls, batches: list["ColumnBatch"]) -> "ColumnBatch":
        """Concatenate batches of one kind, preserving order."""
        if len(batches) == 1:
            return batches[0]
        kind = batches[0].kind
        if _np is not None and isinstance(batches[0].keys, _np.ndarray):
            keys = _np.concatenate([b.keys for b in batches])
            if kind == KIND_OBJ:
                vals: list = []
                for b in batches:
                    vals.extend(b.vals)
            else:
                vals = _np.concatenate([b.vals for b in batches])
        else:
            keys = array("Q")
            for b in batches:
                keys.extend(b.keys)
            if kind == KIND_OBJ:
                vals = []
                for b in batches:
                    vals.extend(b.vals)
            else:
                vals = array("q")
                for b in batches:
                    vals.extend(b.vals)
        return cls(keys, vals, kind)


# -- routing kernels -------------------------------------------------------------


def bin_ids_for(keys, shift: int):
    """splitmix64 bin id per key; bit-identical to the scalar ``bin_fn``.

    ``shift`` is ``64 - log2(num_bins)``; ``shift >= 64`` means one bin.
    Returns a signed index column (ndarray int64 or ``array('q')``).
    """
    if _np is not None and isinstance(keys, _np.ndarray):
        if shift >= 64:
            return _np.zeros(len(keys), dtype=_np.int64)
        u = _np.uint64
        x = keys + u(0x9E3779B97F4A7C15)
        x = (x ^ (x >> u(30))) * u(0xBF58476D1CE4E5B9)
        x = (x ^ (x >> u(27))) * u(0x94D049BB133111EB)
        return ((x ^ (x >> u(31))) >> u(shift)).astype(_np.int64)
    out = array("q")
    append = out.append
    if shift >= 64:
        for _ in keys:
            append(0)
        return out
    for value in keys:
        value = (value + 0x9E3779B97F4A7C15) & _MASK64
        value = ((value ^ (value >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        value = ((value ^ (value >> 27)) * 0x94D049BB133111EB) & _MASK64
        append((value ^ (value >> 31)) >> shift)
    return out


def make_index_vector(values: Sequence[int]):
    """An int index vector for vectorized gathers (owners arrays)."""
    if _np is not None:
        return _np.asarray(values, dtype=_np.int64)
    return list(values)


def gather(vector, idx):
    """``vector[i] for i in idx`` in the active representation."""
    if _np is not None and isinstance(vector, _np.ndarray):
        return vector[idx]
    return array("q", (vector[i] for i in idx))


def group_by_destination(dsts) -> list:
    """Group record positions by destination, first-occurrence order.

    Returns ``[(dst, sel), ...]`` where ``sel`` selects that destination's
    records in arrival order.  Destinations appear in the order their first
    record arrived — exactly the dict-insertion order the per-record
    reference path emits, which the per-link network serialization makes
    observable.
    """
    n = len(dsts)
    if n == 0:
        return []
    if _np is not None and isinstance(dsts, _np.ndarray):
        order = _np.argsort(dsts, kind="stable")
        sd = dsts[order]
        if n and sd[0] == sd[-1]:
            return [(int(sd[0]), order)]
        cuts = _np.flatnonzero(sd[1:] != sd[:-1]) + 1
        bounds = [0, *cuts.tolist(), n]
        segments = []
        for i in range(len(bounds) - 1):
            lo, hi = bounds[i], bounds[i + 1]
            sel = order[lo:hi]
            # ``order`` is stable, so ``sel[0]`` is the arrival position of
            # this destination's first record: sorting on it recovers
            # first-occurrence emission order.
            segments.append((int(sd[lo]), int(sel[0]), sel))
        segments.sort(key=lambda seg: seg[1])
        return [(dst, sel) for dst, _first, sel in segments]
    groups: dict[int, list] = {}
    for i, dst in enumerate(dsts):
        sel = groups.get(dst)
        if sel is None:
            groups[dst] = [i]
        else:
            sel.append(i)
    return list(groups.items())


def split_by_destination(dsts) -> tuple:
    """One stable sort plus slice bounds per destination.

    Returns ``(order, [(dst, lo, hi), ...])``: applying ``order`` to the
    batch columns puts each destination's records in one contiguous run
    ``[lo, hi)`` (arrival order within the run), and the bounds appear in
    first-occurrence emission order — the same order
    :func:`group_by_destination` produces, but the caller splits with
    column *slices* (views on numpy) instead of one fancy-index gather per
    destination.  ``order is None`` with a single bound means every record
    already shares one destination and no reorder is needed.
    """
    n = len(dsts)
    if n == 0:
        return None, []
    if _np is not None and isinstance(dsts, _np.ndarray):
        order = _np.argsort(dsts, kind="stable")
        sd = dsts[order]
        if sd[0] == sd[-1]:
            return None, [(int(sd[0]), 0, n)]
        cuts = _np.flatnonzero(sd[1:] != sd[:-1]) + 1
        positions = [0, *cuts.tolist(), n]
        segs = []
        for i in range(len(positions) - 1):
            lo, hi = positions[i], positions[i + 1]
            # ``order`` is stable, so ``order[lo]`` is the arrival position
            # of this destination's first record: sorting on it recovers
            # first-occurrence emission order.
            segs.append((int(order[lo]), int(sd[lo]), lo, hi))
        segs.sort()
        return order, [(dst, lo, hi) for _first, dst, lo, hi in segs]
    groups: dict[int, list] = {}
    for i, dst in enumerate(dsts):
        sel = groups.get(dst)
        if sel is None:
            groups[dst] = [i]
        else:
            sel.append(i)
    if len(groups) == 1:
        return None, [(next(iter(groups)), 0, n)]
    order_list: list[int] = []
    bounds: list[tuple] = []
    for dst, sel in groups.items():
        lo = len(order_list)
        order_list.extend(sel)
        bounds.append((dst, lo, len(order_list)))
    return order_list, bounds


def group_by_bin_sorted(bins) -> tuple:
    """Group record positions by bin id, bins ascending.

    Returns ``(order, unique_bins, starts)``: ``order`` stably sorts the
    records by bin (within a bin, arrival order is preserved),
    ``unique_bins`` is the ascending list of bin ids, and record positions
    ``order[starts[j]:starts[j+1]]`` belong to ``unique_bins[j]``.
    """
    n = len(bins)
    if n == 0:
        return [], [], [0]
    if _np is not None and isinstance(bins, _np.ndarray):
        order = _np.argsort(bins, kind="stable")
        sb = bins[order]
        if n and sb[0] == sb[-1]:
            return order, [int(sb[0])], [0, n]
        cuts = _np.flatnonzero(sb[1:] != sb[:-1]) + 1
        starts = [0, *cuts.tolist(), n]
        ubins = [int(sb[s]) for s in starts[:-1]]
        return order, ubins, starts
    order = sorted(range(n), key=bins.__getitem__)
    ubins: list[int] = []
    starts: list[int] = []
    previous = None
    for pos, i in enumerate(order):
        b = bins[i]
        if b != previous:
            ubins.append(b)
            starts.append(pos)
            previous = b
    starts.append(n)
    return order, ubins, starts


# -- batch generation ------------------------------------------------------------


class VectorLcg:
    """Batched drop-in for :class:`repro.harness.openloop.Lcg`.

    ``next_batch(n)`` returns the same ``n`` outputs ``Lcg.next`` would
    produce, as one column, and leaves the generator in the same state.
    The jump tables hold exact modular powers ``MULT**k`` and offsets so a
    whole batch is one fused multiply-add over the seed state.
    """

    MULT = 6364136223846793005
    INC = 1442695040888963407

    __slots__ = ("state", "_mults", "_offsets", "_mults_np", "_offsets_np")

    def __init__(self, seed: int) -> None:
        self.state = (seed * 0x9E3779B97F4A7C15 + 1) & _MASK64
        # _mults[k] = MULT**(k+1) mod 2^64; _offsets[k] the matching
        # accumulated increment: state_{k+1} = mults[k]*state_0 + offsets[k].
        self._mults: list[int] = [self.MULT]
        self._offsets: list[int] = [self.INC]
        self._mults_np = None
        self._offsets_np = None

    def _grow(self, n: int) -> None:
        mults, offsets = self._mults, self._offsets
        while len(mults) < n:
            mults.append((mults[-1] * self.MULT) & _MASK64)
            offsets.append((offsets[-1] * self.MULT + self.INC) & _MASK64)
        if _np is not None:
            self._mults_np = _np.asarray(mults, dtype=_np.uint64)
            self._offsets_np = _np.asarray(offsets, dtype=_np.uint64)

    def next_batch(self, n: int):
        """The next ``n`` outputs as an unsigned column."""
        if _np is not None:
            if self._mults_np is None or len(self._mults_np) < n:
                self._grow(n)
            states = (
                self._mults_np[:n] * _np.uint64(self.state)
                + self._offsets_np[:n]
            )
            self.state = int(states[-1]) if n else self.state
            return states >> _np.uint64(16)
        out = array("Q")
        append = out.append
        state = self.state
        mult, inc = self.MULT, self.INC
        for _ in range(n):
            state = (state * mult + inc) & _MASK64
            append(state >> 16)
        self.state = state
        return out


def mod_column(column, modulus: int):
    """``value % modulus`` over an unsigned column."""
    if _np is not None and isinstance(column, _np.ndarray):
        return column % _np.uint64(modulus)
    return array("Q", (value % modulus for value in column))


def ones_column(n: int):
    """A value column of ``n`` ones (the count workload's diffs)."""
    if _np is not None:
        return _np.ones(n, dtype=_np.int64)
    return array("q", [1]) * n


# -- grouped application ---------------------------------------------------------


class ColumnGroup:
    """One notification's worth of records, merged and grouped by bin.

    Handed to a ``columnar_applier``: records are sorted stably by bin id,
    ``bins[j]``'s records occupy ``starts[j]:starts[j+1]`` of the columns,
    and ``states[j]`` is the matching bin's user state (mutable in place).
    """

    __slots__ = ("time", "keys", "vals", "bins", "starts", "states", "worker")

    def __init__(self, time, keys, vals, bins, starts, states, worker) -> None:
        self.time = time
        self.keys = keys
        self.vals = vals
        self.bins = bins
        self.starts = starts
        self.states = states
        self.worker = worker

    def __len__(self) -> int:
        return len(self.keys)

    def sizes(self) -> list:
        """Records per bin, aligned with ``bins``."""
        starts = self.starts
        return [starts[j + 1] - starts[j] for j in range(len(self.bins))]


def merge_segments(segments: list) -> Optional[tuple]:
    """Merge ``(tag, bin_ids, columns)`` segments into one sorted group.

    Returns ``(batch, unique_bins, starts)`` with records stably sorted by
    bin id (ascending bins; within a bin, segment-arrival order), or
    ``None`` when the segments are empty.
    """
    if not segments:
        return None
    if len(segments) == 1:
        bins = segments[0][1]
        batch = segments[0][2]
    else:
        if _np is not None and isinstance(segments[0][1], _np.ndarray):
            bins = _np.concatenate([seg[1] for seg in segments])
        else:
            bins = array("q")
            for seg in segments:
                bins.extend(seg[1])
        batch = ColumnBatch.concat([seg[2] for seg in segments])
    order, ubins, starts = group_by_bin_sorted(bins)
    return batch.take(order), ubins, starts
