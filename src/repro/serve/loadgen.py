"""The open-loop load generator for the serving layer.

:class:`OpenLoopLoadGenerator` issues requests on a Poisson process at a
fixed *offered* rate, regardless of completions (the "users keep clicking"
model).  Offered load above the service capacity makes the admission
queue grow to its bound and shed — the right-hand side of the
throughput/latency hockey-stick.  The closed-loop client model (think,
issue, wait for the reply) is :class:`~repro.serve.resilience.ChaosRunner`'s
sessions.

The generator drives any *frontend* that speaks the server protocol
(``env``, ``workload_keys``, ``make_request``, ``submit``, ``stats``): a
single :class:`~repro.serve.DbmsServer`, or a
:class:`~repro.shard.ShardRouter` in front of a key-range fleet.
Operations come from a seeded :class:`~repro.workloads.ops.MixedOpStream`,
so a run is fully deterministic, and every number lands in the frontend's
:class:`~repro.serve.stats.ServerStats`.
"""

from __future__ import annotations

import math
import random
from typing import TYPE_CHECKING, Optional, Union

from ..workloads.ops import KeyDistribution, MixedOpStream, OpMix
from .server import DbmsServer

if TYPE_CHECKING:
    from ..shard import ShardRouter

__all__ = ["OpenLoopLoadGenerator"]


class OpenLoopLoadGenerator:
    """Poisson arrivals at a fixed offered rate, independent of completions.

    ``server`` is the frontend every request is submitted to: a
    :class:`DbmsServer`, or a :class:`~repro.shard.ShardRouter` over a
    fleet.

    ``burstiness`` shapes the arrival process without changing its mean
    rate: at the default ``1.0`` arrivals are the classic Poisson stream
    (one exponential gap per request — bit-identical to the historical
    draw sequence); above it, requests arrive in geometric bursts of mean
    size ``burstiness`` separated by exponential gaps stretched by the
    same factor.  The offered load is identical; the *variance* is not —
    bursty traffic slams the admission queue in clumps, the scenario
    axis the paper's steady one-client driver never exercises.
    """

    def __init__(
        self,
        server: Union[DbmsServer, ShardRouter],
        rate_ops_s: float,
        duration_s: float,
        mix: Optional[OpMix] = None,
        seed: int = 0,
        session: str = "open",
        distribution: Union[None, str, KeyDistribution] = None,
        burstiness: float = 1.0,
    ) -> None:
        if rate_ops_s <= 0:
            raise ValueError(f"rate_ops_s must be positive, got {rate_ops_s}")
        if duration_s <= 0:
            raise ValueError(f"duration_s must be positive, got {duration_s}")
        if burstiness < 1.0:
            raise ValueError(f"burstiness must be >= 1.0, got {burstiness}")
        self.server = server
        self.rate_ops_s = rate_ops_s
        self.duration_us = duration_s * 1e6
        self.mix = mix if mix is not None else OpMix()
        self.seed = seed
        self.session = session
        self.distribution = distribution
        self.burstiness = burstiness
        self.issued = 0

    def _burst_size(self, rng: random.Random) -> int:
        """Geometric burst size with mean ``burstiness`` (one uniform draw)."""
        # P(K = k) = p (1-p)^(k-1) with p = 1/burstiness has mean burstiness;
        # inverse-CDF sampling keeps the draw count at exactly one per burst.
        p = 1.0 / self.burstiness
        u = max(rng.random(), 1e-12)
        return 1 + int(math.log(u) / math.log(1.0 - p))

    def _arrivals(self):
        env = self.server.env
        rng = random.Random((self.seed << 16) ^ 0xA221BA15)
        stream = MixedOpStream(
            self.server.workload_keys, self.mix, seed=self.seed + 1,
            distribution=self.distribution,
        )
        deadline = env.now + self.duration_us
        bursty = self.burstiness > 1.0
        while True:
            # Gaps stretch by the mean burst size so the offered rate is
            # unchanged: (burstiness ops) / (burstiness / rate seconds).
            gap_rate = self.rate_ops_s / self.burstiness if bursty else self.rate_ops_s
            gap_us = rng.expovariate(gap_rate) * 1e6
            if env.now + gap_us >= deadline:
                return
            yield env.timeout(gap_us)
            burst = self._burst_size(rng) if bursty else 1
            for __ in range(burst):
                request = self.server.make_request(stream.next_op(), session=self.session)
                self.server.submit(request)  # fire and forget: open loop never waits
                self.issued += 1

    def start(self):
        """Spawn the arrival process; returns its DES process event."""
        return self.server.env.process(self._arrivals())

    def run(self, until=None):
        """Start arrivals and run the simulation.

        With ``until=None`` the environment drains completely (arrivals
        stop at the configured duration; in-flight requests finish).
        Passing a time freezes the run mid-traffic — useful for sampling
        the conservation identity with requests genuinely in flight.
        """
        self.start()
        self.server.env.run(until=until)
        return self.server.stats
