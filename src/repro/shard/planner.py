"""Shard-boundary placement over a key universe.

A fleet of N shards partitions the sorted key universe into N contiguous
key ranges by N-1 *cut values*.  Where the cuts go decides two costs at
once:

* **load balance** — the fraction of lookup and scan work each shard
  absorbs.  A shard owning a hot region saturates while its siblings
  idle, and fleet throughput degrades toward single-shard throughput.
* **scan fan-out** — every range scan that straddles a cut becomes a
  multi-shard scatter–gather: one fragment per shard touched, each paying
  routing, dispatch and merge overhead.

:class:`BoundaryPlanner` computes both placements the experiment
compares:

* :meth:`~BoundaryPlanner.equal_width` — the naive baseline: cuts at
  equal key-*value* widths, blind to the workload.
* :meth:`~BoundaryPlanner.optimized` — cuts at equal-*load* quantiles of
  a sampled operation distribution (:class:`~repro.workloads.ops.OpSample`),
  then, within a tolerance window around each quantile, slid to the
  position crossed by the fewest sampled scans.  Balance is the primary
  objective; fan-out is minimized subject to it.

Every cut is snapped to a stored key value.  This is load-bearing, not
cosmetic: the key universe keeps gaps >= 2 between stored keys, so with
cuts on stored keys each shard's
:class:`~repro.workloads.ops.RangeFreshKeys` allocator can mint
``stored_key + 1`` insert keys that provably stay inside the shard's
range — a routed insert can never land on the wrong shard.

Everything here is pure array math over a seeded sample: same inputs,
same plan, byte-identical fleets.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..workloads.ops import OpSample

__all__ = ["ShardPlan", "BoundaryPlanner"]


@dataclass(frozen=True)
class ShardPlan:
    """An immutable placement of shard boundaries over a key universe.

    ``cuts`` are the N-1 boundary key values, each a stored key; shard
    ``i`` owns the half-open key range ``[cuts[i-1], cuts[i])`` (the
    first shard is unbounded below, the last unbounded above).
    ``cut_positions`` are the same boundaries as ranks into the sorted
    key universe — shard ``i`` owns positions
    ``[cut_positions[i-1], cut_positions[i])``.
    """

    shard_count: int
    placement: str
    cuts: tuple = ()
    cut_positions: tuple = ()
    universe_size: int = 0
    _cuts_arr: np.ndarray = field(init=False, repr=False, compare=False)
    _pos_arr: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.shard_count < 1:
            raise ValueError(f"shard_count must be >= 1, got {self.shard_count}")
        if len(self.cuts) != self.shard_count - 1:
            raise ValueError(
                f"{self.shard_count} shards need {self.shard_count - 1} cuts, "
                f"got {len(self.cuts)}"
            )
        if list(self.cuts) != sorted(set(self.cuts)):
            raise ValueError(f"cuts must be strictly increasing, got {self.cuts}")
        object.__setattr__(self, "_cuts_arr", np.asarray(self.cuts, dtype=np.int64))
        object.__setattr__(self, "_pos_arr", np.asarray(self.cut_positions, dtype=np.int64))

    # -- routing -----------------------------------------------------------

    def shard_for_key(self, key: int) -> int:
        """The shard owning ``key`` (a key equal to a cut goes *above* it)."""
        return int(self._cuts_arr.searchsorted(key, side="right"))

    def key_ranges(self) -> list:
        """Per-shard ``(lo, hi)`` half-open key ranges (``None`` = unbounded)."""
        edges = [None, *self.cuts, None]
        return [(edges[i], edges[i + 1]) for i in range(self.shard_count)]

    def fragments(self, start_key: int, end_key: int) -> list:
        """Split an inclusive key-range scan into per-shard fragments.

        Returns ``[(shard, frag_start, frag_end), ...]`` in shard order,
        covering ``[start_key, end_key]`` exactly.  With gaps >= 2 between
        stored keys, ``cut - 1`` never collides with a stored key of the
        shard above, so fragment ends stay inclusive and disjoint.
        """
        lo = self.shard_for_key(start_key)
        hi = self.shard_for_key(end_key)
        out = []
        for shard in range(lo, hi + 1):
            frag_start = start_key if shard == lo else int(self.cuts[shard - 1])
            frag_end = end_key if shard == hi else int(self.cuts[shard]) - 1
            out.append((shard, frag_start, frag_end))
        return out

    # -- plan evaluation (used by the planner and the tests) ----------------

    def predicted_load(self, sample: OpSample) -> np.ndarray:
        """Per-shard load weight of a sample (lookups + scan coverage)."""
        weights = BoundaryPlanner.position_load(sample, self.universe_size)
        edges = [0, *self.cut_positions, self.universe_size]
        return np.asarray(
            [weights[edges[i]:edges[i + 1]].sum() for i in range(self.shard_count)]
        )

    def predicted_fragments(self, sample: OpSample) -> int:
        """Total fragments the sample's scans would dispatch under this plan."""
        if sample.scan_starts.size == 0:
            return 0
        first = np.searchsorted(self._pos_arr, sample.scan_starts, side="right")
        last = np.searchsorted(
            self._pos_arr, sample.scan_starts + sample.scan_span - 1, side="right"
        )
        return int((last - first + 1).sum())


class BoundaryPlanner:
    """Places shard boundaries over a sorted key universe."""

    def __init__(self, keys: np.ndarray, shard_count: int) -> None:
        self.keys = np.asarray(keys, dtype=np.int64)
        if self.keys.size < shard_count:
            raise ValueError(
                f"{shard_count} shards need at least {shard_count} keys, "
                f"have {self.keys.size}"
            )
        if shard_count < 1:
            raise ValueError(f"shard_count must be >= 1, got {shard_count}")
        self.shard_count = int(shard_count)

    # -- sample statistics --------------------------------------------------

    @staticmethod
    def position_load(sample: OpSample, universe_size: int) -> np.ndarray:
        """Load weight per universe position.

        A lookup weighs 1 at its position; a scan weighs 1 at every
        position it covers (computed with a prefix-sum difference trick,
        so cost is O(sample + universe), not O(sample * span)).
        """
        weights = np.zeros(universe_size, dtype=np.float64)
        np.add.at(weights, sample.lookups, 1.0)
        if sample.scan_starts.size:
            delta = np.zeros(universe_size + 1, dtype=np.float64)
            np.add.at(delta, sample.scan_starts, 1.0)
            ends = np.minimum(sample.scan_starts + sample.scan_span, universe_size)
            np.add.at(delta, ends, -1.0)
            weights += np.cumsum(delta[:universe_size])
        return weights

    @staticmethod
    def straddle_costs(sample: OpSample, universe_size: int) -> np.ndarray:
        """``s[i]`` = sampled scans a cut at position ``i`` would split.

        A scan starting at ``a`` covers ``[a, a + span - 1]``; a cut at
        ``i`` (boundary between positions ``i - 1`` and ``i``) splits it
        iff ``a <= i - 1`` and ``a + span - 1 >= i``, i.e.
        ``a in [i - span + 1, i - 1]`` — a sliding-window sum over the
        scan-start counts.
        """
        starts = np.zeros(universe_size, dtype=np.float64)
        if sample.scan_starts.size:
            np.add.at(starts, sample.scan_starts, 1.0)
        prefix = np.concatenate([[0.0], np.cumsum(starts)])  # prefix[i] = sum < i
        positions = np.arange(universe_size)
        window_lo = np.maximum(positions - sample.scan_span + 1, 0)
        return prefix[positions] - prefix[window_lo]

    # -- placements ---------------------------------------------------------

    def equal_width(self) -> ShardPlan:
        """Naive baseline: cuts at equal key-value widths, snapped to keys."""
        positions = []
        lo, hi = int(self.keys[0]), int(self.keys[-1])
        for j in range(1, self.shard_count):
            raw = lo + (hi - lo) * j / self.shard_count
            positions.append(int(np.searchsorted(self.keys, raw, side="left")))
        positions = self._separate(positions)
        return self._plan("equal_width", positions)

    def optimized(self, sample: OpSample, tolerance: float = 0.25) -> ShardPlan:
        """Equal-load quantile cuts, slid to minimize scan straddling.

        Each cut starts at the position where cumulative sampled load
        crosses ``j/N`` of the total; within the window of positions whose
        cumulative load stays within ``tolerance`` of a perfect quantile
        (as a fraction of one shard's target load), the cut slides to the
        position splitting the fewest sampled scans (ties to the lowest
        position).  Balance first, fan-out second.
        """
        if not 0.0 <= tolerance <= 1.0:
            raise ValueError(f"tolerance must be in [0, 1], got {tolerance}")
        n = self.keys.size
        weights = self.position_load(sample, n)
        if weights.sum() <= 0:
            # A sample with no lookups or scans carries no signal; fall
            # back to uniform position quantiles (still snapped to keys).
            weights = np.ones(n, dtype=np.float64)
        straddle = self.straddle_costs(sample, n)
        cumulative = np.cumsum(weights)
        target = cumulative[-1] / self.shard_count
        slack = tolerance * target
        positions = []
        previous = 0
        for j in range(1, self.shard_count):
            ideal = j * target
            window_lo = int(np.searchsorted(cumulative, ideal - slack, side="left")) + 1
            window_hi = int(np.searchsorted(cumulative, ideal + slack, side="right")) + 1
            # Every shard must keep at least one key.
            window_lo = max(window_lo, previous + 1)
            window_hi = min(window_hi, n - (self.shard_count - 1 - j))
            if window_lo >= window_hi:
                best = min(max(previous + 1, window_lo), n - (self.shard_count - j))
            else:
                # Fewest scans split first; among those, best balance; a
                # remaining tie goes to the lowest position (determinism).
                window = np.arange(window_lo, window_hi)
                cost = straddle[window]
                tied = window[cost == cost.min()]
                best = int(tied[np.argmin(np.abs(cumulative[tied - 1] - ideal))])
            positions.append(best)
            previous = best
        return self._plan("optimized", positions)

    # -- helpers -------------------------------------------------------------

    def _separate(self, positions: list) -> list:
        """Force cut positions strictly increasing inside ``(0, n)``."""
        n = self.keys.size
        out = []
        previous = 0
        for j, pos in enumerate(positions):
            pos = max(pos, previous + 1)
            pos = min(pos, n - (len(positions) - j))
            out.append(pos)
            previous = pos
        return out

    def _plan(self, placement: str, positions: list) -> ShardPlan:
        return ShardPlan(
            shard_count=self.shard_count,
            placement=placement,
            cuts=tuple(int(self.keys[p]) for p in positions),
            cut_positions=tuple(int(p) for p in positions),
            universe_size=int(self.keys.size),
        )
