"""Frozen reference implementations: the differential-testing oracles.

Every engine rewrite in ``repro`` froze the implementation it replaced,
and the engine must reproduce that reference bit for bit.  The
references live here, next to the tests and benchmarks that run them,
so the shipped package holds one implementation per algorithm:

* :mod:`tests.oracles.matching` — the pre-compiled bodies of the ten
  bipartite matchers, behind :func:`~tests.oracles.matching.match_legacy`;
* :mod:`tests.oracles.dirty_er` — the networkx bodies of the four
  dirty-ER clusterers, behind
  :func:`~tests.oracles.dirty_er.cluster_legacy`, and the networkx
  bridge of :class:`~repro.graph.unipartite.UnipartiteGraph`;
* :mod:`tests.oracles.strings` — the pre-kernel schema-based string
  bodies, behind :func:`~tests.oracles.strings.schema_based_matrix_legacy`;
* :mod:`tests.oracles.embeddings` — the per-pair RWMD loop.

Oracle bodies are never edited: an engine change must keep matching
them as they are.  Benchmarks run as scripts import this package after
putting the repository root on ``sys.path``.
"""
