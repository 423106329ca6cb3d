"""Shared-memory primitives for the multi-process sharded fleet.

Two kinds of state cross the process boundary between the parent
monitor and its shard workers, and neither is ever pickled row by row:

* **The data plane** — :class:`ShmBlockRing`, a small ring of
  fixed-size block slots inside one ``multiprocessing.shared_memory``
  segment.  The parent memcpys a dequeued
  :class:`~repro.fleet.queueing.WindowBatch` (feature rows,
  dense device indices, sequence numbers) into a free slot and sends a
  tiny control tuple naming the slot; the worker maps the same segment
  and reads the rows as zero-copy numpy views.  The verdict travels
  back as one column of per-row second-class vote counts in the *same*
  slot (the parent expands counts into predictions, entropies and
  accept flags when it folds), so one round trip moves exactly one
  header tuple through the pipe regardless of batch size.  Ownership
  of a slot is explicit: the parent owns FREE slots, hands one to the
  worker with the ``block`` message, and takes it back when the
  worker's ``result`` message names it.

* **The model plane** — :func:`publish_model` /
  :func:`map_publication`, the one-shot publication of a
  :class:`~repro.fleet.sharding.PublishedHmd` record.  The forest node
  tensor, the second-class leaf indicator and the fused front land in
  one read-only segment; the forest's roots and shape travel in a
  plain header dict.  Every worker maps the segment into a
  :class:`MappedPublication` — same node tensor bytes, same
  :func:`~repro.uncertainty.trust.vote_counts` — so worker counts are
  bitwise the parent's by construction.  The vote-count tables never
  ship: only the parent expands counts.

A republish (after a warm retrain or threshold change) is a fresh
segment with a bumped ``generation``; workers swap views on the next
control message and the parent unlinks the stale segment once every
worker has acknowledged the new one.
"""

from __future__ import annotations

import atexit
import secrets
import zlib
from multiprocessing import shared_memory

import numpy as np

from ..ml.backend import FlatForest, QuantizedForest
from ..uncertainty.trust import vote_counts

__all__ = [
    "ShmBlockRing",
    "ShmIntegrityError",
    "publish_model",
    "map_publication",
]


class ShmIntegrityError(RuntimeError):
    """A slot's stored checksum does not match its contents."""


# Names of segments this process created and has not yet unlinked.  A
# supervisor that dies before ``close()`` (crash, SIGTERM handler, test
# failure mid-fixture) would otherwise leak the segment into /dev/shm
# until reboot; the atexit sweep unlinks whatever is left.  Normal
# teardown empties the registry first, so the sweep is a no-op then.
_OWNED: set[str] = set()


def _register_owned(name: str) -> None:
    _OWNED.add(name)


def _discard_owned(name: str) -> None:
    _OWNED.discard(name)


@atexit.register
def _cleanup_owned_segments() -> None:
    for name in list(_OWNED):
        _OWNED.discard(name)
        try:
            leaked = shared_memory.SharedMemory(name=name)
        except FileNotFoundError:
            continue
        except Exception:
            continue
        try:
            leaked.close()
            leaked.unlink()
        except Exception:
            pass


def _crc(*arrays) -> int:
    """crc32 over the raw bytes of one or more arrays (order matters)."""
    value = 0
    for array in arrays:
        value = zlib.crc32(np.ascontiguousarray(array).tobytes(), value)
    return value & 0xFFFFFFFF


def _attach(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment without adopting its lifetime.

    The attaching process must never unlink a segment it does not own:
    Python's ``resource_tracker`` registers every mapped segment and
    would unlink it when the *worker* exits (or is killed), yanking the
    arena out from under the parent and any replacement worker.  On
    3.13+ ``track=False`` expresses this directly; older interpreters
    need the explicit unregister.
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # Python < 3.13
        segment = shared_memory.SharedMemory(name=name)
        try:
            from multiprocessing import resource_tracker

            resource_tracker.unregister(segment._name, "shared_memory")
        except Exception:
            pass
        return segment


def _unlink(segment: shared_memory.SharedMemory) -> None:
    """Unlink a parent-owned segment without tracker double-count noise.

    The resource tracker keeps a *set* of names, and workers attached
    via :func:`_attach` have already unregistered the shared entry; a
    bare ``unlink()`` would then send an unregister for a name the
    tracker no longer holds (a KeyError traceback in the tracker
    process).  Re-registering first makes the pair a clean add/remove
    whether or not any worker ever attached.
    """
    try:
        from multiprocessing import resource_tracker

        resource_tracker.register(segment._name, "shared_memory")
    except Exception:
        pass
    segment.unlink()
    _discard_owned(segment.name)


def _align(offset: int, itemsize: int) -> int:
    """Round ``offset`` up to a multiple of ``itemsize`` (numpy-safe)."""
    return -(-offset // itemsize) * itemsize


def _layout(fields: list[tuple[str, str, tuple]]) -> tuple[dict, int]:
    """Byte offsets for named arrays packed back to back in one segment."""
    specs: dict[str, tuple[int, str, tuple]] = {}
    offset = 0
    for name, dtype_str, shape in fields:
        dtype = np.dtype(dtype_str)
        offset = _align(offset, max(dtype.itemsize, 1))
        specs[name] = (offset, dtype_str, tuple(int(s) for s in shape))
        offset += int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
    return specs, max(offset, 1)


def _map_views(buf, specs: dict) -> dict[str, np.ndarray]:
    """Numpy views over a segment buffer described by ``_layout`` specs."""
    views = {}
    for name, (offset, dtype_str, shape) in specs.items():
        dtype = np.dtype(dtype_str)
        count = int(np.prod(shape, dtype=np.int64))
        views[name] = np.frombuffer(
            buf, dtype=dtype, count=count, offset=offset
        ).reshape(shape)
    return views


# ---------------------------------------------------------------------------
# Data plane: the per-worker block-slot ring
# ---------------------------------------------------------------------------


class ShmBlockRing:
    """A ring of fixed-size block slots in one shared-memory segment.

    Each slot carries one in-flight batch: the request columns the
    parent writes (``features``, ``dev``, ``seqs``) and the result
    column the worker writes back (``counts``, each row's second-class
    vote count).  Slot hand-off is driven entirely by control
    messages — the segment itself holds no locks or headers, so a
    SIGKILLed worker can never leave a slot in a half-locked state;
    the parent simply reclaims every slot it had handed out.
    """

    def __init__(
        self,
        *,
        n_slots: int,
        capacity: int,
        n_features: int,
        feat_dtype: str = "<f8",
        name: str | None = None,
        create: bool = True,
    ):
        self.n_slots = int(n_slots)
        self.capacity = int(capacity)
        self.n_features = int(n_features)
        # Feature-arena precision: "<f4" when the published model runs
        # the float32 front (halves the dominant arena traffic).  The
        # parent's write_block cast f8→f4 rounds exactly like the
        # in-process front's own input cast, so worker verdicts stay
        # identical to the single-monitor reference.
        self.feat_dtype = str(feat_dtype)
        self._specs, nbytes = _layout(
            [
                ("features", self.feat_dtype, (n_slots, capacity, n_features)),
                ("dev", "<i8", (n_slots, capacity)),
                ("seqs", "<i8", (n_slots, capacity)),
                ("counts", "<i8", (n_slots, capacity)),
                # Per-slot integrity checksums: the request columns'
                # crc (parent writes, worker verifies) and the result
                # column's crc (worker writes, parent verifies).  A
                # corrupted frame is detected before it can poison
                # device state on either side of the boundary.
                ("req_crc", "<u4", (n_slots,)),
                ("res_crc", "<u4", (n_slots,)),
                # Trace sidecar: monotonic stamps for the sampled
                # window-lifecycle tracer — [0] ship (parent, at block
                # hand-off), [1] verdict (worker, before sealing).
                # Deliberately outside both checksums: stamps differ
                # across restart re-ships of the same block, and the
                # verdict payload they ride with must stay bitwise
                # reproducible.
                ("trace", "<f8", (n_slots, 2)),
            ]
        )
        self.owner = bool(create)
        if create:
            self._shm = shared_memory.SharedMemory(
                create=True, size=nbytes, name=name
            )
            _register_owned(self._shm.name)
        else:
            self._shm = _attach(name)
        self._views = _map_views(self._shm.buf, self._specs)

    @property
    def name(self) -> str:
        """Segment name — what the worker needs to attach."""
        return self._shm.name

    def spec(self) -> dict:
        """Constructor arguments for the worker-side attach."""
        return {
            "name": self.name,
            "n_slots": self.n_slots,
            "capacity": self.capacity,
            "n_features": self.n_features,
            "feat_dtype": self.feat_dtype,
        }

    @classmethod
    def attach(cls, spec: dict) -> "ShmBlockRing":
        """Map an existing ring from its :meth:`spec` (worker side)."""
        return cls(create=False, **spec)

    def slot(self, index: int) -> dict[str, np.ndarray]:
        """Zero-copy views of one slot's request and result columns."""
        return {key: view[index] for key, view in self._views.items()}

    def write_block(self, index: int, features, dev, seqs) -> int:
        """Copy one batch into a slot (parent side); returns row count.

        The request checksum is computed over the slot's *stored* bytes
        (post any feature-dtype cast), so the worker's re-computation
        over the same bytes matches exactly.
        """
        n = len(seqs)
        slot = self.slot(index)
        slot["features"][:n] = features
        slot["dev"][:n] = dev
        slot["seqs"][:n] = seqs
        self._views["req_crc"][index] = _crc(
            slot["features"][:n], slot["dev"][:n], slot["seqs"][:n]
        )
        return n

    def verify_block(self, index: int, n: int) -> bool:
        """Recompute a slot's request checksum (worker side)."""
        slot = self.slot(index)
        return int(self._views["req_crc"][index]) == _crc(
            slot["features"][:n], slot["dev"][:n], slot["seqs"][:n]
        )

    def seal_results(self, index: int, n: int) -> None:
        """Stamp a slot's result checksum after writing its counts."""
        self._views["res_crc"][index] = _crc(self._views["counts"][index, :n])

    def read_results(self, index: int, n: int) -> np.ndarray:
        """Copy one slot's vote counts out (parent side).

        A copy, not a view: the slot returns to the free pool as soon
        as the result is consumed, and the next block must not race the
        caller's array.  Raises :class:`ShmIntegrityError` when the
        stored result checksum does not match — the caller treats that
        exactly like a worker death (restart + re-ship recomputes).
        """
        counts = self._views["counts"][index, :n]
        if int(self._views["res_crc"][index]) != _crc(counts):
            raise ShmIntegrityError(
                f"slot {index} result column failed its checksum."
            )
        return counts.copy()

    def stamp_trace(self, index: int, column: int, ts: float) -> None:
        """Write one sidecar stamp (0 = ship, 1 = verdict)."""
        self._views["trace"][index, column] = ts

    def read_trace(self, index: int) -> tuple[float, float]:
        """Read a slot's ``(ship, verdict)`` sidecar stamps."""
        row = self._views["trace"][index]
        return float(row[0]), float(row[1])

    def corrupt_slot(self, index: int) -> None:
        """Flip bits in a slot's feature bytes (chaos/testing hook).

        Leaves the stored request checksum untouched, so the next
        :meth:`verify_block` on the slot must fail.
        """
        raw = self._views["features"][index].reshape(-1).view(np.uint8)
        raw[: min(8, len(raw))] ^= 0xFF

    def close(self) -> None:
        """Drop the mapping (and the segment itself when owner)."""
        self._views = {}
        try:
            self._shm.close()
        except Exception:
            pass
        if self.owner:
            try:
                _unlink(self._shm)
            except Exception:
                pass
            self.owner = False


# ---------------------------------------------------------------------------
# Model plane: one-shot publication of the compiled verdict state
# ---------------------------------------------------------------------------

# Arrays big enough to be worth the segment; the roots and scalars ride
# in the pickled header.  "kind" in the header says which forest was
# shipped:
#   flat      — fg / threshold (float64 or float32)
#   quantized — packed node records + the bin-encoding tables
# Both ship the second-class leaf indicator and the two front arrays.
_SEGMENT_ARRAYS = {
    "flat": ("fg", "threshold"),
    "quantized": ("packed", "edges_sorted", "edge_prefix"),
}


def publish_model(published, *, generation: int = 0) -> tuple[dict, object]:
    """Publish a model's counting parts into shared memory.

    Returns ``(header, segment)``: the picklable header every worker
    receives (through spawn args or a ``republish`` control message)
    and the parent-owned segment handle to unlink once the publication
    is retired.  The node tensor, leaf indicator and front go into one
    read-only segment; the forest's roots and shape go into the header.
    """
    backend = published.backend
    kind = "quantized" if isinstance(backend, QuantizedForest) else "flat"
    arrays = {key: getattr(backend, key) for key in _SEGMENT_ARRAYS[kind]}
    arrays["leaf_is_second"] = published.tables.leaf_is_second
    arrays["front_a"], arrays["front_b"] = published.front
    arrays = {key: np.ascontiguousarray(value) for key, value in arrays.items()}
    fields = [(k, v.dtype.str, v.shape) for k, v in arrays.items()]
    specs, nbytes = _layout(fields)
    segment = shared_memory.SharedMemory(
        create=True, size=nbytes, name=f"repro-hmd-{secrets.token_hex(4)}"
    )
    _register_owned(segment.name)
    views = _map_views(segment.buf, specs)
    for key, value in arrays.items():
        views[key][...] = value

    header = {
        "kind": kind,
        "generation": int(generation),
        "segment": segment.name,
        "specs": specs,
        "roots": np.asarray(backend.roots),
        "n_features": int(backend.n_features),
        "max_depth": int(backend.max_depth),
    }
    return header, segment


class MappedPublication:
    """A worker's live view of one published model generation."""

    def __init__(self, header: dict):
        self.generation = int(header["generation"])
        self._segment = _attach(header["segment"])
        views = _map_views(self._segment.buf, header["specs"])
        self.leaf_is_second = views["leaf_is_second"]
        # The count reduction never reads leaf labels (the second-class
        # indicator is the whole reduction), so the indicator doubles
        # as the label column of the mapped forest.
        shape = dict(
            leaf_label=self.leaf_is_second,
            roots=header["roots"],
            n_features=header["n_features"],
            max_depth=header["max_depth"],
        )
        if header["kind"] == "quantized":
            self.forest = QuantizedForest(
                packed=views["packed"],
                edges_sorted=views["edges_sorted"],
                edge_prefix=views["edge_prefix"],
                **shape,
            )
        else:
            self.forest = FlatForest(
                fg=views["fg"],
                threshold=views["threshold"],
                # A float32 publication ships float32 thresholds; the
                # mapped forest must cast inputs the same way.
                feature_dtype=views["threshold"].dtype,
                **shape,
            )
        self.front = (views["front_a"], views["front_b"])

    def counts(self, X) -> np.ndarray:
        """Each row's second-class vote count — the parent's function."""
        return vote_counts(self.front, self.forest, self.leaf_is_second, X)

    def close(self) -> None:
        """Drop the mapping (never unlinks — the parent owns the name)."""
        self.front = self.forest = self.leaf_is_second = None
        if self._segment is not None:
            try:
                self._segment.close()
            except Exception:
                pass
            self._segment = None


def map_publication(header: dict) -> MappedPublication:
    """Worker-side constructor for a published model header."""
    return MappedPublication(header)
