"""Shared fixtures for the service test suite.

The warm app is expensive (dataset generation + index builds), so the
module-scoped ``warm_app`` fixture builds it once per test module and
drives its lifespan per scenario through
:func:`repro.service.testclient.run_app`.
"""

from __future__ import annotations

import pytest

from repro.service import ServiceConfig, create_app

#: Small-but-real serving profile: d1 at minimum scale resolves in
#: well under a second per warmup and still exercises every layer
#: (generation, blocking index, kernels, scheduler).
SERVICE_DATASET = "d1"


def service_config(**overrides) -> ServiceConfig:
    defaults = dict(
        datasets=(SERVICE_DATASET,),
        blocking="tokens",
        measure="jaccard",
        scale=0.05,
        max_pairs=200,
        seed=42,
        max_batch=64,
    )
    defaults.update(overrides)
    return ServiceConfig(**defaults)


@pytest.fixture(scope="module")
def warm_app():
    """One app instance shared per test module (warmed per lifespan)."""
    return create_app(service_config())


@pytest.fixture(scope="module")
def left_texts(warm_app):
    """Real left-collection record texts to resolve, via a throwaway
    warmup of the same frozen configuration."""
    from repro.service.resolver import ResolverIndex

    index = ResolverIndex.build(
        SERVICE_DATASET, blocking="tokens", scale=0.05, max_pairs=200
    )
    lefts, _ = index.cache.texts()
    return lefts
