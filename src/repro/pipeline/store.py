"""Persistent, content-addressed artifact store.

:class:`~repro.pipeline.engine.ArtifactCache` memoizes the expensive
per-dataset intermediates of corpus generation — embeddings, token
matrices, entity graphs — for the lifetime of *one* run.  Two corpus
configs that share a dataset (same code, scale, ``max_pairs``, seed)
still rebuilt every one of them from scratch.  :class:`ArtifactStore`
extends the cache across runs: artifacts are written to a versioned
on-disk layout and any later run over the same generated dataset loads
them instead of rebuilding.

Layout and keys
---------------
Every entry is a pair of files in one flat directory::

    <root>/<key>.npz    # the artifact payload (numpy arrays only)
    <root>/<key>.json   # the entry manifest (commit marker)

``<key>`` is a BLAKE2b hash of the canonical JSON encoding of
``(dataset code, scale, max_pairs, seed, artifact kind, artifact
params)`` — everything that determines the artifact's content, and
nothing that does not (worker counts, store paths and corpus grouping
never enter the key).  The manifest stamps each entry with
``schema_version`` (the store's serialization format) and
``repro_version`` (the package version); an entry whose stamps do not
match the running code is treated as a miss and deleted, so format or
algorithm changes can never resurrect stale intermediates.

Concurrency
-----------
Writes are atomic (temp file in the store directory + ``os.replace``)
and **write-once**: the payload lands first, the manifest second, and
an entry only exists once its manifest does.  Concurrent writers of
the same key — e.g. the process-parallel corpus workers — race
harmlessly: whoever commits first wins and later writers discard their
work (the artifacts are deterministic, so every racer holds the same
value).  Readers that observe a payload without a manifest simply see
a miss; they never delete the in-flight file.

Size budget
-----------
:meth:`ArtifactStore.gc` evicts least-recently-used entries (manifest
mtime, refreshed on every load) until the store fits a byte budget;
a store constructed with ``size_budget`` enforces it after every
write.  :meth:`ArtifactStore.purge` empties the store.

Corruption and quarantine
-------------------------
A committed entry can still rot after the fact — a torn write on a
dying disk, bit flips, an interrupted copy of the store directory.
Reads detect this (an unparseable manifest, a payload that no longer
decodes) and **quarantine** the entry: both files move to
``<root>/quarantine/`` — aside, not deleted — the load reports a
miss, and the caller rebuilds and recommits under the same key.
Quarantined files are never consulted again (no retry-loop on known-
bad bytes) but are kept for inspection; ``repro store ls`` surfaces
their count, ``purge`` clears them, and ``gc`` sweeps quarantined
files older than the stray grace period so the corner cannot grow
without bound.  Version-stamp mismatches are *staleness*, not
corruption: those entries are deleted outright, exactly as before.

Read-only tier
--------------
A store constructed with ``read_tier=PATH`` layers a **shared
read-only tier** under the writable root: a load that misses locally
is retried against the tier, and a tier hit **never writes upward** —
no recency ``utime``, no stale-entry deletion, no copy into the local
root (the in-memory :class:`~repro.pipeline.engine.ArtifactCache`
absorbs repeat reads within a run).  A stale or corrupt tier entry is
simply a miss: the tier may live on media this process cannot (and
must not) modify, e.g. a CI cache directory seeded by earlier runs.
All writes, gc and purge operate on the local root only.

Serialization is strictly ``npz``/JSON — no pickles.  Only artifact
kinds with a registered codec persist (see :data:`STORE_KINDS`); all
of them round-trip **bit-identically**, which is what keeps a corpus
generated from a warm store equal, bit for bit, to a cold one
(``tests/pipeline/test_store.py`` asserts this end to end).
"""

from __future__ import annotations

import json
import os
import sys
import time
import uuid
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO

import numpy as np
from scipy import sparse

__all__ = [
    "ArtifactStore",
    "StoreEntry",
    "SCHEMA_VERSION",
    "STORE_KINDS",
    "atomic_write",
    "dataset_store_key",
    "parse_size_budget",
]

#: Version of the on-disk serialization format.  Bump whenever a codec
#: changes shape or meaning; every existing entry is then invalidated
#: on first contact.
SCHEMA_VERSION = 1

#: Subdirectory of the store root holding corrupt entries that were
#: moved aside on read (see "Corruption and quarantine" above).  The
#: maintenance scans all glob the flat root, so quarantined files are
#: structurally invisible to loads, ``entries()`` and eviction.
_QUARANTINE_DIR = "quarantine"

#: Grace period before gc/purge may sweep uncommitted files (stray
#: temp files and payloads without a manifest).  Younger ones may be
#: a live writer's in-flight commit — deleting them would crash its
#: ``os.replace`` or orphan its manifest.
_STRAY_GRACE_SECONDS = 3600.0


def atomic_write(target: Path, write: Callable[[BinaryIO], object]) -> int:
    """Write ``target`` atomically; returns its size in bytes.

    ``write`` fills a binary handle on a temp file in ``target``'s
    directory (``<name>.tmp-<pid>-<hex>``), and ``os.replace`` then
    publishes it, so a reader sees the old file or the whole new one,
    never a torn one.  The size comes from the written handle, not a
    later ``stat``: once renamed, the file may already be gone (a
    concurrent gc or quarantine), which must not fail this write.
    """
    tmp = target.with_name(
        f"{target.name}.tmp-{os.getpid()}-{uuid.uuid4().hex[:8]}"
    )
    try:
        with open(tmp, "wb") as handle:
            write(handle)
            nbytes = handle.tell()
        os.replace(tmp, target)
    finally:
        tmp.unlink(missing_ok=True)
    return nbytes


def quarantine_file(path: Path, what: str, error: Exception) -> None:
    """Move ``path``, a cache file that does not decode (a torn
    write), to ``quarantine/`` beside it and say so in one line on
    stderr; the caller then recomputes what it held."""
    aside = path.parent / _QUARANTINE_DIR / path.name
    aside.parent.mkdir(exist_ok=True)
    path.replace(aside)
    print(
        f"{what} {path} does not decode ({error}); "
        f"moved to {aside}, recomputing",
        file=sys.stderr,
    )


def _repro_version() -> str:
    from repro import __version__

    return __version__


def dataset_store_key(
    code: str,
    scale: float | None,
    max_pairs: int | None,
    seed: int,
) -> tuple:
    """The dataset-identity half of a store key.

    These four knobs fully determine a generated dataset (see
    :func:`repro.datasets.generator.generate_dataset`), hence every
    artifact derived from it.  ``None`` scale/max_pairs are resolved
    to the catalog's environment-driven defaults *here*: two runs
    under different ``REPRO_SCALE``/``REPRO_MAX_PAIRS`` settings
    generate different datasets and must never share a key.
    """
    from repro.datasets.catalog import default_max_pairs, default_scale

    if scale is None:
        scale = default_scale()
    if max_pairs is None:
        max_pairs = default_max_pairs()
    # dataset_spec lowercases the code, so case variants generate the
    # same dataset and must share a key.
    return (code.lower(), float(scale), int(max_pairs), seed)


def parse_size_budget(text: str | int | None) -> int | None:
    """A byte count from ``"500K"`` / ``"64M"`` / ``"2G"`` / plain int."""
    if text is None:
        return None
    if isinstance(text, int):
        if text < 0:
            raise ValueError(f"size budget must be >= 0: {text!r}")
        return text
    raw = text.strip().upper()
    units = {"K": 1024, "M": 1024**2, "G": 1024**3, "B": 1}
    factor = 1
    if raw and raw[-1] in units:
        factor = units[raw[-1]]
        raw = raw[:-1]
    try:
        # int() overflows on an infinite budget and rejects NaN.
        nbytes = int(float(raw) * factor)
    except (ValueError, OverflowError):
        raise ValueError(f"unparseable size budget: {text!r}") from None
    if nbytes < 0:
        # A negative budget would evict everything — that's purge's
        # job, and a likely typo here.
        raise ValueError(f"size budget must be >= 0: {text!r}")
    return nbytes


# ----------------------------------------------------------------------
# Codecs: artifact value <-> flat dict of numpy arrays
# ----------------------------------------------------------------------
def _encode_csr(prefix: str, matrix: sparse.csr_matrix) -> dict:
    return {
        f"{prefix}_data": matrix.data,
        f"{prefix}_indices": matrix.indices,
        f"{prefix}_indptr": matrix.indptr,
        f"{prefix}_shape": np.asarray(matrix.shape, dtype=np.int64),
    }


def _decode_csr(prefix: str, arrays) -> sparse.csr_matrix:
    return sparse.csr_matrix(
        (
            arrays[f"{prefix}_data"],
            arrays[f"{prefix}_indices"],
            arrays[f"{prefix}_indptr"],
        ),
        shape=tuple(arrays[f"{prefix}_shape"]),
    )


def _encode_ragged(prefix: str, matrices: list[np.ndarray]) -> dict:
    """A list of per-item arrays as one stack plus row lengths."""
    lengths = np.asarray(
        [matrix.shape[0] for matrix in matrices], dtype=np.int64
    )
    return {
        f"{prefix}_stack": np.concatenate(matrices, axis=0),
        f"{prefix}_lengths": lengths,
    }


def _decode_ragged(prefix: str, arrays) -> list[np.ndarray]:
    lengths = arrays[f"{prefix}_lengths"]
    splits = np.cumsum(lengths)[:-1]
    return [
        np.ascontiguousarray(part)
        for part in np.split(arrays[f"{prefix}_stack"], splits, axis=0)
    ]


class _CsrPairCodec:
    """``(csr_left, csr_right)`` — entity graphs, unique token counts."""

    def encode(self, value) -> dict:
        left, right = value
        return {**_encode_csr("left", left), **_encode_csr("right", right)}

    def decode(self, arrays):
        return _decode_csr("left", arrays), _decode_csr("right", arrays)


class _ArrayCodec:
    """A single dense array — graph ratio sums, common-edge counts."""

    def encode(self, value) -> dict:
        return {"array": np.asarray(value)}

    def decode(self, arrays):
        return arrays["array"]


class _ArrayPairCodec:
    """``(array_left, array_right)`` — stacked text embeddings."""

    def encode(self, value) -> dict:
        left, right = value
        return {"left": np.asarray(left), "right": np.asarray(right)}

    def decode(self, arrays):
        return arrays["left"], arrays["right"]


class _RaggedPairCodec:
    """Two lists of per-text matrices — token embeddings."""

    def encode(self, value) -> dict:
        left, right = value
        return {**_encode_ragged("left", left), **_encode_ragged("right", right)}

    def decode(self, arrays):
        return _decode_ragged("left", arrays), _decode_ragged("right", arrays)


class _EncodingPairCodec:
    """``((codes, lengths), (codes, lengths))`` — unique string encodings."""

    def encode(self, value) -> dict:
        (codes_left, lengths_left), (codes_right, lengths_right) = value
        return {
            "left_codes": codes_left,
            "left_lengths": lengths_left,
            "right_codes": codes_right,
            "right_lengths": lengths_right,
        }

    def decode(self, arrays):
        return (
            (arrays["left_codes"], arrays["left_lengths"]),
            (arrays["right_codes"], arrays["right_lengths"]),
        )


class _VectorModelPairCodec:
    """``(VectorModel, VectorModel)`` with their shared vocabulary.

    The vocabulary dict maps each gram to its first-occurrence column
    (:mod:`repro.vectorspace.profiles`), so storing the grams in dict
    order loses nothing; decoding rebuilds one dict shared by both
    sides, mirroring construction.
    """

    def encode(self, value) -> dict:
        left, right = value
        grams = np.asarray(list(left.vocabulary), dtype=np.str_)
        return {
            "vocabulary": grams,
            "left_df": left.document_frequency,
            "right_df": right.document_frequency,
            **_encode_csr("left_matrix", left.matrix),
            **_encode_csr("left_binary", left.binary),
            **_encode_csr("right_matrix", right.matrix),
            **_encode_csr("right_binary", right.binary),
        }

    def decode(self, arrays):
        from repro.vectorspace import VectorModel

        vocabulary = {
            str(gram): index
            for index, gram in enumerate(arrays["vocabulary"])
        }
        left = VectorModel(
            matrix=_decode_csr("left_matrix", arrays),
            binary=_decode_csr("left_binary", arrays),
            document_frequency=arrays["left_df"],
            vocabulary=vocabulary,
        )
        right = VectorModel(
            matrix=_decode_csr("right_matrix", arrays),
            binary=_decode_csr("right_binary", arrays),
            document_frequency=arrays["right_df"],
            vocabulary=vocabulary,
        )
        return left, right


class _MongeElkanGridCodec:
    """``(ids_left, ids_right, grid)`` — the unique-token SW grid."""

    def encode(self, value) -> dict:
        ids_left, ids_right, grid = value
        return {
            "grid": grid,
            **_encode_ragged("left_ids", [row[:, None] for row in ids_left]),
            **_encode_ragged("right_ids", [row[:, None] for row in ids_right]),
        }

    def decode(self, arrays):
        ids_left = [
            np.ascontiguousarray(part[:, 0])
            for part in _decode_ragged("left_ids", arrays)
        ]
        ids_right = [
            np.ascontiguousarray(part[:, 0])
            for part in _decode_ragged("right_ids", arrays)
        ]
        return ids_left, ids_right, arrays["grid"]


class _CandidateSetCodec:
    """:class:`~repro.pipeline.blocking.CandidateSet` — blocking output."""

    def encode(self, value) -> dict:
        stats_keys = np.asarray([k for k, _ in value.stats], dtype=np.str_)
        stats_values = np.asarray(
            [v for _, v in value.stats], dtype=np.int64
        )
        return {
            "shape": np.asarray([value.n_left, value.n_right], dtype=np.int64),
            "scheme": np.asarray([value.scheme], dtype=np.str_),
            "left": np.asarray(value.left, dtype=np.int64),
            "right": np.asarray(value.right, dtype=np.int64),
            "stats_keys": stats_keys,
            "stats_values": stats_values,
        }

    def decode(self, arrays):
        from repro.pipeline.blocking import CandidateSet

        stats = tuple(
            (str(key), int(count))
            for key, count in zip(arrays["stats_keys"], arrays["stats_values"])
        )
        return CandidateSet(
            n_left=int(arrays["shape"][0]),
            n_right=int(arrays["shape"][1]),
            scheme=str(arrays["scheme"][0]),
            left=arrays["left"].astype(np.intp),
            right=arrays["right"].astype(np.intp),
            stats=stats,
        )


#: Artifact kind (the first element of an ``ArtifactCache`` key) ->
#: codec.  Only these kinds persist; everything else — cheap derived
#: state, live model objects — stays in-memory per run.  Every kind is
#: written through the one compressed npz writer.  An entry whose kind
#: has no codec here (a retired kind an older version committed) still
#: lists, gc-evicts and purges like any other, but never loads.
STORE_KINDS = {
    "entity_graphs": _CsrPairCodec(),
    "graph_ratio": _ArrayCodec(),
    "graph_common": _ArrayCodec(),
    "vector_model": _VectorModelPairCodec(),
    "token_embeddings": _RaggedPairCodec(),
    "text_embeddings": _ArrayPairCodec(),
    "string_unique_encoded": _EncodingPairCodec(),
    "string_unique_tokens": _CsrPairCodec(),
    "string_token_grid": _MongeElkanGridCodec(),
    "candidate_set": _CandidateSetCodec(),
}


# ----------------------------------------------------------------------
# The store
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class StoreEntry:
    """One committed store entry, as reported by :meth:`ArtifactStore.entries`."""

    key: str
    kind: str
    dataset: str
    params: tuple
    nbytes: int
    last_used: float
    created: float
    schema_version: int
    repro_version: str

    @property
    def stale(self) -> bool:
        """True when the entry's version stamps no longer match."""
        return (
            self.schema_version != SCHEMA_VERSION
            or self.repro_version != _repro_version()
        )


class ArtifactStore:
    """Persistent cross-run artifact store rooted at a directory.

    Parameters
    ----------
    root:
        Store directory; created on first write.
    size_budget:
        Optional byte budget (int or ``"500K"``/``"64M"``/``"2G"``)
        enforced by LRU eviction after every committed write.
    read_tier:
        Optional shared read-only tier (a directory or another
        :class:`ArtifactStore`) consulted on local misses.  Tier hits
        never modify the tier or the local root; writes always go to
        ``root``.
    """

    def __init__(
        self,
        root: str | Path,
        size_budget: str | int | None = None,
        read_tier: "str | Path | ArtifactStore | None" = None,
    ) -> None:
        self.root = Path(root)
        self.size_budget = parse_size_budget(size_budget)
        if read_tier is None or isinstance(read_tier, ArtifactStore):
            self.read_tier = read_tier
        else:
            self.read_tier = ArtifactStore(read_tier)
        # Running byte estimate for the post-write budget trigger;
        # None = unknown (resolved by one directory scan on demand).
        self._tracked_bytes: int | None = None

    # ------------------------------------------------------------ keys
    def entry_key(self, dataset_key: tuple, cache_key: tuple) -> str:
        """Content hash of ``(dataset identity, kind, params)``."""
        kind, params = cache_key[0], list(cache_key[1:])
        payload = json.dumps(
            {"dataset": list(dataset_key), "kind": kind, "params": params},
            sort_keys=True,
        )
        import hashlib

        return hashlib.blake2b(
            payload.encode("utf-8"), digest_size=16
        ).hexdigest()

    def _paths(self, key: str) -> tuple[Path, Path]:
        return self.root / f"{key}.npz", self.root / f"{key}.json"

    # ------------------------------------------------------------ load
    def load(self, dataset_key: tuple, cache_key: tuple):
        """The stored artifact, or ``None`` on miss.

        In the local root, a corrupted payload or a version-stamp
        mismatch deletes the entry and reports a miss — the caller
        rebuilds and the rebuild overwrites the dead entry.  A local
        miss then consults the read-only tier (when configured), where
        the same conditions are a plain miss: the tier is never
        touched, in any way, by a load.
        """
        kind = cache_key[0]
        codec = STORE_KINDS.get(kind)
        if codec is None:
            return None
        key = self.entry_key(dataset_key, cache_key)
        value = self._load_entry(codec, key, mutate=True)
        if value is None and self.read_tier is not None:
            value = self.read_tier._load_entry(codec, key, mutate=False)
        return value

    def _load_entry(self, codec, key: str, mutate: bool):
        """One directory's half of :meth:`load`.

        ``mutate=False`` is the read-only-tier discipline: no recency
        ``utime``, and stale or corrupt entries are left in place (the
        directory may not be writable, and it is not ours to clean).
        """
        payload_path, manifest_path = self._paths(key)
        try:
            manifest_text = manifest_path.read_text()
            manifest = json.loads(manifest_text)
        except OSError:
            return None  # not committed (or mid-commit) — never delete
        except json.JSONDecodeError:
            # Manifest writes are atomic, so a present-but-unparseable
            # manifest is corruption (not an in-flight commit): a
            # wedged entry that save() would refuse forever.
            if mutate:
                self._quarantine(key)
            return None
        if (
            manifest.get("schema_version") != SCHEMA_VERSION
            or manifest.get("repro_version") != _repro_version()
        ):
            if mutate:
                self._remove(key)
            return None
        try:
            with np.load(payload_path, allow_pickle=False) as bundle:
                value = codec.decode(bundle)
        except Exception:
            # A concurrent gc may have evicted the entry after its
            # manifest was read, and a writer may already have
            # recommitted it: unless the manifest read is still the
            # live one, this is a plain miss.  Otherwise the payload is
            # truncated, undecodable or gone: corruption, not staleness
            # — move the entry aside so the rebuild recommits cleanly
            # and the bad bytes are never read again.
            if mutate and self._manifest_text(manifest_path) == manifest_text:
                self._quarantine(key)
            return None
        if mutate:
            now = time.time()
            try:
                os.utime(manifest_path, (now, now))  # LRU recency
            except OSError:
                pass
        return value

    @staticmethod
    def _manifest_text(manifest_path: Path) -> str | None:
        try:
            return manifest_path.read_text()
        except OSError:
            return None

    # ------------------------------------------------------------ save
    def save(self, dataset_key: tuple, cache_key: tuple, value) -> bool:
        """Commit ``value`` under its content key; atomic, write-once.

        Returns ``False`` without writing when the entry already
        exists (the concurrent-writer "loser discards" path) or when
        the kind has no codec.
        """
        kind = cache_key[0]
        codec = STORE_KINDS.get(kind)
        if codec is None:
            return False
        key = self.entry_key(dataset_key, cache_key)
        payload_path, manifest_path = self._paths(key)
        if manifest_path.exists():
            return False
        self.root.mkdir(parents=True, exist_ok=True)
        arrays = codec.encode(value)
        nbytes = atomic_write(
            payload_path, lambda handle: np.savez_compressed(handle, **arrays)
        )
        manifest = {
            "schema_version": SCHEMA_VERSION,
            "repro_version": _repro_version(),
            "dataset": list(dataset_key),
            "kind": kind,
            "params": list(cache_key[1:]),
            "nbytes": nbytes,
            "created": time.time(),
        }
        manifest_text = json.dumps(manifest)
        atomic_write(manifest_path, lambda h: h.write(manifest_text.encode()))
        if self.size_budget is not None:
            # Amortized enforcement: track the byte total incrementally
            # (one directory scan to seed it) and run the full gc scan
            # only when the estimate crosses the budget — not after
            # every write.  Concurrent writers can make the estimate
            # stale; that only delays a trigger, never skips one for
            # this store's own writes.
            entry_bytes = nbytes + len(manifest_text.encode("utf-8"))
            if self._tracked_bytes is None:
                self._tracked_bytes = self.total_bytes()
            else:
                self._tracked_bytes += entry_bytes
            if self._tracked_bytes > self.size_budget:
                self.gc(self.size_budget)
                self._tracked_bytes = None  # rescan lazily next time
        return True

    # ------------------------------------------------------ quarantine
    @property
    def quarantine_root(self) -> Path:
        return self.root / _QUARANTINE_DIR

    def _quarantine(self, key: str) -> bool:
        """Move a corrupt entry aside; ``True`` when it left the root.

        The manifest moves first (uncommitting the entry, so a
        concurrent reader can never see a quarantined payload behind a
        live manifest).  A same-key re-corruption overwrites the
        previous quarantined files — one corpse per key is plenty.
        Falls back to plain removal when the quarantine directory
        cannot be created (e.g. a read-only root reached via a bug):
        the store must never retry-loop on bad bytes.
        """
        payload_path, manifest_path = self._paths(key)
        try:
            self.quarantine_root.mkdir(parents=True, exist_ok=True)
        except OSError:
            return self._remove(key)
        moved = False
        for path in (manifest_path, payload_path):
            try:
                if path.exists():
                    os.replace(path, self.quarantine_root / path.name)
                    moved = True
            except OSError:
                # Cross-device or permission trouble: delete instead
                # of leaving the corrupt file live.
                try:
                    path.unlink(missing_ok=True)
                except OSError:
                    pass
        return moved

    def quarantined(self) -> list[Path]:
        """Quarantined files, oldest first."""
        if not self.quarantine_root.is_dir():
            return []
        return sorted(
            (p for p in self.quarantine_root.iterdir() if p.is_file()),
            key=lambda p: p.name,
        )

    def quarantine_counts(self) -> tuple[int, int]:
        """``(entry count, total bytes)`` of the quarantine corner.

        Entries are counted by distinct key (one manifest + payload
        pair counts once).
        """
        files = self.quarantined()
        nbytes = 0
        keys = set()
        for path in files:
            keys.add(path.stem)
            try:
                nbytes += path.stat().st_size
            except OSError:
                pass
        return len(keys), nbytes

    # ------------------------------------------------------ maintenance
    def entries(self) -> list[StoreEntry]:
        """All committed entries, most recently used first."""
        found = []
        for manifest_path in sorted(self.root.glob("*.json")):
            key = manifest_path.stem
            payload_path = self.root / f"{key}.npz"
            try:
                manifest = json.loads(manifest_path.read_text())
                stat = manifest_path.stat()
                payload_bytes = payload_path.stat().st_size
            except (OSError, json.JSONDecodeError):
                continue
            found.append(
                StoreEntry(
                    key=key,
                    kind=manifest.get("kind", "?"),
                    dataset=str((manifest.get("dataset") or ["?"])[0]),
                    params=tuple(manifest.get("params", ())),
                    nbytes=payload_bytes + stat.st_size,
                    last_used=stat.st_mtime,
                    created=manifest.get("created", stat.st_mtime),
                    schema_version=manifest.get("schema_version", -1),
                    repro_version=manifest.get("repro_version", "?"),
                )
            )
        found.sort(key=lambda entry: entry.last_used, reverse=True)
        return found

    def total_bytes(self) -> int:
        """Total committed payload + manifest bytes."""
        return sum(entry.nbytes for entry in self.entries())

    def gc(self, size_budget: str | int | None = None) -> list[StoreEntry]:
        """Evict stale entries, then LRU entries beyond the budget.

        Returns the evicted entries.  With no budget (and none set on
        the store), only stale entries and abandoned uncommitted files
        go.
        """
        budget = parse_size_budget(size_budget)
        if budget is None:
            budget = self.size_budget
        evicted = []
        kept_bytes = 0
        evicting = False
        for entry in self.entries():  # most recently used first
            # Strict LRU: once one entry overflows the budget, every
            # colder entry goes too — a colder entry must never
            # survive a hotter one's eviction just because it is
            # smaller.
            over = budget is not None and (
                evicting or kept_bytes + entry.nbytes > budget
            )
            if entry.stale or over:
                evicting = evicting or over
                if self._remove(entry.key):
                    evicted.append(entry)
            else:
                kept_bytes += entry.nbytes
        self._sweep_uncommitted()
        return evicted

    def purge(self) -> int:
        """Delete every committed entry; returns the count.

        Abandoned uncommitted files (strays older than the grace
        period) are swept too — younger in-flight writes are left for
        their writer — and the quarantine corner is emptied.
        """
        count = 0
        for entry in self.entries():
            if self._remove(entry.key):
                count += 1
        self._sweep_uncommitted()
        for path in self.quarantined():
            try:
                path.unlink(missing_ok=True)
            except OSError:
                pass
        return count

    def _sweep_uncommitted(self) -> None:
        """Remove abandoned temp files and manifest-less payloads.

        Both are uncommitted state — a crashed writer's leftovers —
        but a *live* writer's files look exactly the same, so only
        files past the grace period are swept (a commit takes
        milliseconds, the grace period is an hour).
        """
        deadline = time.time() - _STRAY_GRACE_SECONDS
        for stray in self.root.glob("*.tmp-*"):
            try:
                if stray.stat().st_mtime < deadline:
                    stray.unlink(missing_ok=True)
            except OSError:
                pass
        for manifest_path in self.root.glob("*.json"):
            # A committed manifest that no longer parses is a wedged
            # entry (entries() cannot even list it); reclaim it and
            # its payload once past the grace period.
            try:
                if manifest_path.stat().st_mtime >= deadline:
                    continue
                json.loads(manifest_path.read_text())
            except json.JSONDecodeError:
                self._remove(manifest_path.stem)
            except OSError:
                pass
        for payload in self.root.glob("*.npz"):
            try:
                orphaned = not payload.with_suffix(".json").exists()
                if orphaned and payload.stat().st_mtime < deadline:
                    payload.unlink(missing_ok=True)
            except OSError:
                pass
        for corpse in self.quarantined():
            # Quarantined files are kept for inspection, but only for
            # the grace period — gc bounds the corner's growth.
            try:
                if corpse.stat().st_mtime < deadline:
                    corpse.unlink(missing_ok=True)
            except OSError:
                pass

    def _remove(self, key: str) -> bool:
        """Best-effort entry removal; ``True`` when it disappeared.

        Deletion can fail on a store the process cannot write to
        (e.g. a shared read-only tier); callers treat that as "entry
        stays" — the store must never kill a run over cleanup.
        """
        payload_path, manifest_path = self._paths(key)
        try:
            manifest_path.unlink(missing_ok=True)  # uncommit first
            payload_path.unlink(missing_ok=True)
        except OSError:
            return False
        return True
