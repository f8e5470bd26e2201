"""Key and pointer type definitions shared by all index structures.

The paper's experiments use 4-byte keys, 4-byte page ids, 4-byte tuple ids,
and 2-byte in-page offsets (Section 4.1).  :class:`KeySpec` bundles the key
width with its numpy dtype so page layouts can be computed for other widths
(the technical-report experiments use larger keys).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "KeySpec",
    "KEY4",
    "KEY8",
    "PAGE_ID_SIZE",
    "TUPLE_ID_SIZE",
    "INPAGE_OFFSET_SIZE",
    "INVALID_PAGE_ID",
]

PAGE_ID_SIZE = 4
TUPLE_ID_SIZE = 4
INPAGE_OFFSET_SIZE = 2

#: Sentinel for "no page" in sibling links etc.  Kept representable in 4
#: bytes so layouts stay honest.
INVALID_PAGE_ID = 0xFFFFFFFF


@dataclass(frozen=True)
class KeySpec:
    """Width and dtype of index keys."""

    size: int
    dtype: np.dtype

    def __post_init__(self) -> None:
        if np.dtype(self.dtype).itemsize != self.size:
            raise ValueError(
                f"dtype {self.dtype} is {np.dtype(self.dtype).itemsize} bytes, expected {self.size}"
            )

    @cached_property
    def max_key(self) -> int:
        """Largest storable key value.

        Page routing (``page_entries``, ``descend``'s probes and
        ``leaf_first_keys``) runs in signed 64 bits, and int64's maximum is
        the routing key past the last leaf, so a key stays below it and
        every cast is exact.
        """
        return min(int(np.iinfo(self.dtype).max), int(np.iinfo(np.int64).max) - 1)

    def empty(self, capacity: int) -> np.ndarray:
        """A zeroed key array of the given capacity."""
        return np.zeros(capacity, dtype=self.dtype)


KEY4 = KeySpec(4, np.dtype(np.uint32))
#: Signed, like page routing: a uint64 key array compared with a Python int
#: promotes both to float64 in numpy, which loses exactness past 2**53.
KEY8 = KeySpec(8, np.dtype(np.int64))
