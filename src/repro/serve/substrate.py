"""The shared serving-substrate factory.

A *substrate* is everything a server binds to one DES environment: the
:class:`~repro.storage.disk.DiskArray`, the (deliberately small)
:class:`~repro.storage.buffer.BufferPool`, the
:class:`~repro.storage.prefetch.AsyncPageReader` and the
:class:`~repro.serve.admission.AdmissionController`.  Before sharding,
this wiring lived inline in ``DbmsServer._build_substrate`` — and a
second copy would have appeared in the shard builder.  Extracting it
means a single-server build, a crash rebuild and every shard of a
:class:`~repro.shard.ShardRouter` all construct their storage stack
through one path.

The one degree of freedom that sharding adds is the *environment*: a
standalone server owns a fresh :class:`~repro.des.Environment`, while the
N shards of a fleet must share one clock (their scatter–gather fragments
interleave on it).  Pass ``env`` to bind the substrate to an existing
environment instead of creating one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..des import Environment
from ..obs import MetricsRegistry, Observability
from ..storage.buffer import BufferPool
from ..storage.config import StorageConfig
from ..storage.disk import DiskArray
from ..storage.prefetch import AsyncPageReader, RetryPolicy
from .admission import AdmissionController

__all__ = ["ServingSubstrate", "build_serving_substrate"]


@dataclass
class ServingSubstrate:
    """One server's storage + admission stack, bound to one environment."""

    env: Environment
    disks: DiskArray
    pool: BufferPool
    reader: AsyncPageReader
    admission: AdmissionController


def build_serving_substrate(
    config: StorageConfig,
    store,
    *,
    env: Optional[Environment] = None,
    initial_time: float = 0.0,
    injector=None,
    mirrored: bool = False,
    obs: Optional[Observability] = None,
    policy: Optional[RetryPolicy] = None,
    seed: int = 0,
    max_concurrency: int = 16,
    queue_depth: int = 64,
    metrics: Optional[MetricsRegistry] = None,
) -> ServingSubstrate:
    """Wire one complete serving substrate.

    ``env=None`` (the standalone / crash-rebuild path) creates a fresh
    environment starting at ``initial_time`` so a recovered server's clock
    stays monotonic; passing an environment (the shard path) binds this
    substrate — its disk array, reader and admission queue — to the shared
    fleet clock instead.
    """
    if env is None:
        env = Environment(initial_time=initial_time)
    obs = obs if obs is not None else Observability(metrics=metrics)
    disks = DiskArray(env, config, injector=injector, mirrored=mirrored, obs=obs)
    pool = BufferPool(config, store, obs=obs)
    reader = AsyncPageReader(env, disks, pool, policy=policy, seed=seed, obs=obs)
    admission = AdmissionController(
        env,
        max_concurrency=max_concurrency,
        max_queue_depth=queue_depth,
        metrics=metrics if metrics is not None else obs.metrics,
    )
    return ServingSubstrate(env=env, disks=disks, pool=pool, reader=reader, admission=admission)
