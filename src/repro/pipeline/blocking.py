"""Candidate generation (blocking): one index, probed per record.

The corpus engine scores the full ``n x m`` cross product by default,
exactly as in the paper's protocol.  This module provides the optional
stage in front of it.  :class:`BlockingIndex` is the one
implementation of three composable blocking schemes: built over the
two entity collections, it freezes the corpus statistics (document
frequencies, stop-key limits, rarity order, minhash permutations) and
posts the *right* (indexed) records under their blocking keys.  A
probe with one record returns the sorted indexed-record ids the spec
keeps for it.

Every candidate path is a probe of that index:

* :func:`build_candidate_set` probes every left record in order; the
  rows concatenate into the deterministic, sorted COO
  :class:`CandidateSet` the sparse scoring path
  (:class:`~repro.pipeline.kernels.SparsePlan` +
  :func:`~repro.pipeline.batched_strings.schema_based_pairs`) scores
  without materializing the dense grid;
* the service resolves a query with one probe, and the stream probes
  each arriving record; :meth:`BlockingIndex.ingest` grows the posting
  lists under the frozen statistics.

Schemes (composable with ``+``, union semantics):

``tokens``
    Token / q-gram inverted index.  Records sharing at least one key
    become candidates.  Keys whose document frequency exceeds
    ``max_df`` (fraction of all records of both collections) are stop
    keys and never posted — deterministic pruning, no sampling.
    ``q=0`` blocks on word tokens, ``q>=2`` on padded character
    q-grams.

``prefix``
    Prefix filtering with admissible upper bounds for the token-set
    Jaccard similarity at threshold ``t``.  Indexed records post all
    their tokens; a query looks up only its ``|x| - ceil(t*|x|) + 1``
    globally rarest tokens.  If ``J(x, y) >= t`` then the (integer)
    overlap is at least ``ceil(t*|x|)``, so one shared token must land
    in the query's prefix — the pair cannot be pruned.  A second
    admissible bound, ``min(|x|,|y|) / max(|x|,|y|) >= t``, discards
    length-incompatible hits.

``minhash``
    MinHash-LSH banding.  Token sets are hashed with stable blake2b
    digests, permuted by seeded wrap-around multiply-add hashing
    (``perms`` permutations), and records whose signatures collide in
    any of ``bands`` bands become candidates.  Fully reproducible for
    a fixed ``seed``; no run-to-run randomness.

Specs are strings — ``"tokens:max_df=0.2+minhash:bands=8,seed=7"`` —
parsed by :func:`parse_blocking_spec` and canonicalized by
:func:`canonical_blocking` so equivalent spellings share cache and
:class:`~repro.pipeline.store.ArtifactStore` entries.
"""

from __future__ import annotations

import hashlib
import math
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from repro.textsim.tokenize import character_ngrams, tokens

__all__ = [
    "BlockingIndex",
    "CandidateSet",
    "SchemeSpec",
    "build_candidate_set",
    "canonical_blocking",
    "parse_blocking_spec",
]

# Defaults per scheme; also the authoritative list of known parameters.
_SCHEME_DEFAULTS: dict[str, dict[str, float | int]] = {
    "tokens": {"max_df": 0.5, "q": 0},
    "prefix": {"threshold": 0.4},
    "minhash": {"bands": 16, "perms": 64, "seed": 42},
}

_INT_PARAMS = {"q", "bands", "perms", "seed"}

# Admissibility epsilon: thresholds only ever get *more* permissive,
# never less, so float rounding can not prune a qualifying pair.
_EPS = 1e-9

_MIX = np.uint64(0x9E3779B97F4A7C15)


@dataclass(frozen=True)
class SchemeSpec:
    """One parsed blocking scheme with fully-resolved parameters."""

    name: str
    params: tuple[tuple[str, float | int], ...]

    @property
    def canonical(self) -> str:
        parts = ",".join(f"{k}={v:g}" for k, v in self.params)
        return f"{self.name}:{parts}" if parts else self.name


def parse_blocking_spec(text: str) -> tuple[SchemeSpec, ...]:
    """Parse ``scheme[:k=v,...][+scheme...]`` into resolved specs.

    Unknown schemes or parameters raise :class:`ValueError`; omitted
    parameters take the documented defaults.  The returned tuple is
    sorted by canonical form (union is commutative) and de-duplicated.
    """
    if not isinstance(text, str) or not text.strip():
        raise ValueError("blocking spec must be a non-empty string")
    specs = []
    for chunk in text.split("+"):
        chunk = chunk.strip()
        if not chunk:
            raise ValueError(f"empty scheme in blocking spec {text!r}")
        name, _, tail = chunk.partition(":")
        name = name.strip().lower()
        if name not in _SCHEME_DEFAULTS:
            known = ", ".join(sorted(_SCHEME_DEFAULTS))
            raise ValueError(
                f"unknown blocking scheme {name!r} (known: {known})"
            )
        params = dict(_SCHEME_DEFAULTS[name])
        if tail.strip():
            for pair in tail.split(","):
                key, sep, value = pair.partition("=")
                key = key.strip().lower()
                if not sep or key not in params:
                    known = ", ".join(sorted(params))
                    raise ValueError(
                        f"bad parameter {pair.strip()!r} for scheme "
                        f"{name!r} (known: {known})"
                    )
                try:
                    params[key] = (
                        int(value) if key in _INT_PARAMS else float(value)
                    )
                except ValueError:
                    raise ValueError(
                        f"non-numeric value {value.strip()!r} for "
                        f"{name}:{key}"
                    ) from None
        _validate_params(name, params)
        specs.append(
            SchemeSpec(name, tuple(sorted(params.items())))
        )
    unique = sorted(set(specs), key=lambda spec: spec.canonical)
    return tuple(unique)


def _validate_params(name: str, params: dict[str, float | int]) -> None:
    if name == "tokens":
        if not 0.0 < params["max_df"] <= 1.0:
            raise ValueError("tokens:max_df must be in (0, 1]")
        if params["q"] < 0 or params["q"] == 1:
            raise ValueError("tokens:q must be 0 (words) or >= 2")
    elif name == "prefix":
        if not 0.0 < params["threshold"] <= 1.0:
            raise ValueError("prefix:threshold must be in (0, 1]")
    elif name == "minhash":
        if params["perms"] < 1 or params["bands"] < 1:
            raise ValueError("minhash:perms and minhash:bands must be >= 1")
        if params["perms"] % params["bands"]:
            raise ValueError(
                "minhash:perms must be divisible by minhash:bands"
            )


def canonical_blocking(text: str) -> str:
    """The canonical spelling of a blocking spec string."""
    return "+".join(spec.canonical for spec in parse_blocking_spec(text))


@dataclass(frozen=True)
class CandidateSet:
    """A deterministic sorted-COO list of candidate record pairs.

    ``left``/``right`` are parallel ``intp`` arrays sorted
    lexicographically by ``(left, right)`` with no duplicates, so two
    builds of the same spec over the same collections compare equal
    array-for-array.  ``stats`` records per-scheme raw pair counts
    (before union/dedup) for inspection and reports.
    """

    n_left: int
    n_right: int
    scheme: str
    left: np.ndarray = field(compare=False)
    right: np.ndarray = field(compare=False)
    stats: tuple[tuple[str, int], ...] = ()

    @property
    def n_pairs(self) -> int:
        return int(self.left.shape[0])

    @property
    def reduction(self) -> float:
        """Dense cells per retained candidate pair (higher is better)."""
        total = self.n_left * self.n_right
        if self.n_pairs == 0:
            return float(total) if total else 1.0
        return total / self.n_pairs

    def recall(self, ground_truth: set[tuple[int, int]]) -> float:
        """Fraction of ground-truth pairs retained (1.0 when empty)."""
        if not ground_truth:
            return 1.0
        truth = np.asarray(sorted(ground_truth), dtype=np.int64)
        stride = np.int64(self.n_right)
        folded_truth = truth[:, 0] * stride + truth[:, 1]
        folded = self.left.astype(np.int64) * stride + self.right
        hits = np.isin(folded_truth, folded).sum()
        return float(hits) / len(ground_truth)


def build_candidate_set(
    lefts: list[str], rights: list[str], spec: str
) -> CandidateSet:
    """The candidate set for ``spec``: row ``i`` is the probe of ``lefts[i]``.

    Builds one :class:`BlockingIndex` over the two collections and
    probes it with every left record in order.  Each row is sorted and
    unique, so the row-major concatenation is already the sorted,
    de-duplicated COO list.  ``stats`` sums each scheme's raw hits
    over the rows.
    """
    index = BlockingIndex.build(lefts, rights, spec)
    names = index.scheme.split("+")
    raw = [0] * len(names)
    rows = []
    for text in lefts:
        row, counts = index._probe_counted(text)
        rows.append(row)
        raw = [total + count for total, count in zip(raw, counts)]
    right = np.concatenate(rows) if rows else np.zeros(0, dtype=np.int64)
    return CandidateSet(
        n_left=len(lefts),
        n_right=len(rights),
        scheme=index.scheme,
        left=np.repeat(
            np.arange(len(lefts), dtype=np.intp),
            [row.shape[0] for row in rows],
        ),
        right=right.astype(np.intp, copy=False),
        stats=tuple(
            (f"{name}:pairs", count) for name, count in zip(names, raw)
        ),
    )


def _record_tokens(texts: list[str], q: int) -> list[list[str]]:
    """Sorted distinct blocking keys per record."""
    if q:
        return [
            sorted(set(character_ngrams(text, q))) if text else []
            for text in texts
        ]
    return [sorted(set(tokens(text))) for text in texts]


class _PostingLists:
    """One scheme's posting lists: blocking key -> ascending record ids.

    A scheme says which keys an indexed record posts under
    (``_posted_keys``) and which postings a query collects (``probe``,
    duplicates kept: their count is the scheme's raw hit count).
    """

    def __init__(self) -> None:
        self._postings: dict = {}

    def _posted_keys(self, texts: list[str]) -> list[list]:
        raise NotImplementedError

    def ingest(self, texts: list[str], start_id: int) -> None:
        """Post ``texts`` as records ``start_id, start_id + 1, ...``."""
        self._post(self._posted_keys(texts), start_id)

    def _post(self, records: list[list], start_id: int) -> None:
        # Group by key first, so every touched list grows once per
        # call rather than once per record: hot keys stay linear.
        grouped: dict = {}
        for record_id, keys in enumerate(records, start_id):
            for key in keys:
                grouped.setdefault(key, []).append(record_id)
        for key, ids in grouped.items():
            grown = np.asarray(ids, dtype=np.int64)
            old = self._postings.get(key)
            self._postings[key] = (
                grown if old is None else np.concatenate([old, grown])
            )

    def _hits(self, keys) -> np.ndarray:
        parts = [self._postings[key] for key in keys if key in self._postings]
        if not parts:
            return np.zeros(0, dtype=np.int64)
        return np.concatenate(parts)


class _TokenProbe(_PostingLists):
    """``tokens``: every indexed record sharing a non-stop key."""

    def __init__(
        self, lefts: list[str], rights: list[str], q: int, max_df: float
    ) -> None:
        super().__init__()
        self._q = q
        right_keys = _record_tokens(rights, q)
        self._df = Counter(
            chain.from_iterable(_record_tokens(lefts, q) + right_keys)
        )
        self._limit = max_df * (len(lefts) + len(rights)) + _EPS
        self._post(self._kept(right_keys), 0)

    def _kept(self, records: list[list[str]]) -> list[list[str]]:
        # An unseen key gets the serving-convention df = 1 (what a
        # batch containing the record would count): never a stop key.
        df, limit = self._df, self._limit
        return [
            [key for key in keys if df.get(key, 1) <= limit]
            for keys in records
        ]

    def _posted_keys(self, texts: list[str]) -> list[list[str]]:
        return self._kept(_record_tokens(texts, self._q))

    def probe(self, text: str) -> np.ndarray:
        # Stop keys have no postings, so the query looks up all keys.
        return self._hits(_record_tokens([text], self._q)[0])


class _PrefixProbe(_TokenProbe):
    """``prefix``: the query's rarity prefix, then the length bound.

    Word tokens with ``max_df = 1``, which keeps every key: indexed
    records post all their tokens, and only the query side depends on
    the frozen document frequencies.
    """

    def __init__(
        self, lefts: list[str], rights: list[str], threshold: float
    ) -> None:
        self._threshold = threshold
        # Before the base build, which posts the indexed records.
        self._sizes = np.zeros(0, dtype=np.int64)
        super().__init__(lefts, rights, q=0, max_df=1.0)

    def _post(self, records: list[list[str]], start_id: int) -> None:
        super()._post(records, start_id)
        sizes = np.asarray([len(keys) for keys in records], dtype=np.int64)
        self._sizes = np.concatenate([self._sizes, sizes])

    def probe(self, text: str) -> np.ndarray:
        query = _record_tokens([text], 0)[0]
        size = len(query)
        if size == 0:
            return np.zeros(0, dtype=np.int64)
        # J(x, y) >= t implies integer overlap >= ceil(t*|x|); the
        # epsilon only ever lengthens the prefix (more permissive).
        required = max(int(math.ceil(self._threshold * size - _EPS)), 1)
        # Rarest first, ties by token text: a deterministic order.
        prefix = sorted(query, key=lambda t: (self._df.get(t, 1), t))
        hits = self._hits(prefix[: size - required + 1])
        sizes = self._sizes[hits]
        # Length bound: J <= min/max, so min < t*max cannot reach t.
        keep = np.minimum(size, sizes) >= (
            self._threshold * np.maximum(size, sizes) - _EPS
        )
        return hits[keep]


def _token_hash(token: str) -> int:
    digest = hashlib.blake2b(token.encode("utf-8"), digest_size=8)
    return int.from_bytes(digest.digest(), "big")


def _fold_band(rows_chunk: np.ndarray) -> np.ndarray:
    """Fold each band's signature rows into one bucket key."""
    key = rows_chunk[:, 0].copy()
    for column in range(1, rows_chunk.shape[1]):
        key = (key * _MIX) ^ rows_chunk[:, column]
    return key


class _MinhashProbe(_PostingLists):
    """``minhash``: postings keyed by ``(band, bucket)``.

    Banding collisions are pairwise — a query and an indexed record
    collide iff their signatures agree on some band, independent of
    every other record — so no corpus statistic is involved.
    """

    def __init__(
        self,
        lefts: list[str],
        rights: list[str],
        perms: int,
        bands: int,
        seed: int,
    ) -> None:
        super().__init__()  # pairwise collisions: ``lefts`` are unused
        self._bands = bands
        self._rows = perms // bands
        rng = np.random.default_rng(seed)
        high = np.iinfo(np.uint64).max
        self._mul = (
            rng.integers(1, high, size=perms, dtype=np.uint64) | np.uint64(1)
        )
        self._add = rng.integers(0, high, size=perms, dtype=np.uint64)
        self.ingest(rights, 0)

    def _band_keys(self, keys: list[str]) -> list[tuple[int, int]]:
        if not keys:
            return []  # token-less records never enter a band
        values = np.asarray(
            [_token_hash(key) for key in keys], dtype=np.uint64
        )
        # Wrap-around multiply-add hashing: uint64 overflow is the
        # intended mixing; the min over a record's hashes is
        # order-invariant.
        permuted = self._mul[:, None] * values[None, :] + self._add[:, None]
        signature = permuted.min(axis=1).reshape(self._bands, self._rows)
        return list(enumerate(_fold_band(signature).tolist()))

    def _posted_keys(self, texts: list[str]) -> list[list[tuple[int, int]]]:
        return [self._band_keys(keys) for keys in _record_tokens(texts, 0)]

    def probe(self, text: str) -> np.ndarray:
        return self._hits(self._band_keys(_record_tokens([text], 0)[0]))


# Scheme name -> probe class; each takes ``(lefts, rights)`` plus the
# scheme's parameters as keywords.
_PROBES = {
    "tokens": _TokenProbe,
    "prefix": _PrefixProbe,
    "minhash": _MinhashProbe,
}


@dataclass(frozen=True)
class BlockingIndex:
    """Frozen blocking index over one indexed (right) collection.

    Built once from the two collections of a dataset (corpus
    statistics freeze at build time), probed many times with single
    records.  :meth:`probe` returns the sorted, de-duplicated indexed-
    side record ids a blocking spec retains for the query; for a left
    record of the build, that is its :func:`build_candidate_set` row.
    Novel query records reuse the frozen statistics — the serving
    convention (IDF frozen at index build): an unseen token counts as
    a rarest (df = 1) token, which is what a batch containing the
    query would compute.
    """

    n_indexed: int
    scheme: str
    _probes: tuple = field(compare=False, repr=False)

    @classmethod
    def build(
        cls, lefts: list[str], rights: list[str], spec: str
    ) -> "BlockingIndex":
        specs = parse_blocking_spec(spec)
        return cls(
            n_indexed=len(rights),
            scheme="+".join(s.canonical for s in specs),
            _probes=tuple(
                _PROBES[s.name](lefts, rights, **dict(s.params))
                for s in specs
            ),
        )

    def probe(self, text: str) -> np.ndarray:
        """Sorted unique indexed-record ids retained for ``text``."""
        return self._probe_counted(text)[0]

    def _probe_counted(self, text: str) -> tuple[np.ndarray, list[int]]:
        """The probe row plus each scheme's raw hit count."""
        hits = [probe.probe(text) for probe in self._probes]
        return np.unique(np.concatenate(hits)), [len(part) for part in hits]

    def ingest(self, texts: list[str]) -> np.ndarray:
        """Index new records in place; returns their assigned ids.

        The build-time corpus statistics (document frequencies, stop
        limits, rarity order, minhash permutations) stay frozen — only
        the posting lists grow, so existing candidates never change
        and every probe stays deterministic.  Statistics-free schemes
        (``minhash``, and ``tokens`` with no stop keys in play) probe
        *exactly* like a build over the grown collection; the
        df-dependent schemes probe like a build that reuses the
        build-time frequencies — the same serving convention novel
        query records already get.
        """
        texts = list(texts)
        start = self.n_indexed
        for probe in self._probes:
            probe.ingest(texts, start)
        object.__setattr__(self, "n_indexed", start + len(texts))
        return np.arange(start, start + len(texts), dtype=np.int64)
