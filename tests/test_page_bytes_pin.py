"""Pin the bytes ``encode_page`` writes for WAL page images.

Every ``PAGE_IMAGE`` record and every durable page of a crash image is an
``encode_page`` payload, so the committed ``recovery`` figure rows
(``wal_kb``, ``recovery_us``) measure these bytes.  Each case builds a small
fixed tree (or mini database) whose history splits pages and deletes keys,
and hashes ``(page id, encode_page(page))`` over every live page.  A change
to the disk, fp-disk or heap page format moves a digest here.

Regenerate (only for an intended format change)::

    PYTHONPATH=src python -m tests.test_page_bytes_pin
"""

import hashlib

import numpy as np
import pytest

from repro import DiskBPlusTree, DiskFirstFpTree, MicroIndexTree, TreeEnvironment
from repro.dbms import MiniDbms
from repro.image import encode_page

TREES = {
    "disk": DiskBPlusTree,
    "micro": MicroIndexTree,
    "fp-disk": DiskFirstFpTree,
}

EXPECTED = {
    "dbms": (89, "0b096f169fef29c8dd79c81f88fbff3c096cb041e19ce9706e593fbb7e62c40d"),
    "disk": (38, "f657fee3fd65e6fe7d82656e5ddc8d6f0b74f39013cbc06726025c8c6069f3a6"),
    "fp-disk": (47, "80b222fbfefcfe3ba309a9295eed301510005b74b511eb171b41a8f4d9199640"),
    "micro": (46, "f6b0787639d9ff4ab0c44b5e611bd78e7df8221296a40f51239205b4c8934f1b"),
}


def _digest(owner, store) -> tuple[int, str]:
    digest = hashlib.sha256()
    pids = sorted(store.page_ids())
    for pid in pids:
        data = encode_page(owner, store.page(pid))
        digest.update(pid.to_bytes(4, "little"))
        digest.update(len(data).to_bytes(4, "little"))
        digest.update(data)
    return len(pids), digest.hexdigest()


def _tree_case(kind: str) -> tuple[int, str]:
    tree = TREES[kind](TreeEnvironment(page_size=512, buffer_pages=64))
    rng = np.random.default_rng(31)
    keys = rng.choice(np.arange(10, 40_000), size=1_500, replace=False)
    tree.bulkload(np.sort(keys[:500]), np.arange(500))
    for tid, key in enumerate(keys[500:], start=500):
        tree.insert(int(key), tid)  # splits pages past the bulkload
    for key in keys[::3]:
        tree.delete(int(key))
    tree.validate()
    return _digest(tree, tree.store)


def _dbms_case() -> tuple[int, str]:
    db = MiniDbms(num_rows=600, num_disks=2, page_size=4096, seed=5)
    return _digest(db.index, db.store)


def _case(name: str) -> tuple[int, str]:
    return _dbms_case() if name == "dbms" else _tree_case(name)


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_page_bytes_are_pinned(name):
    assert _case(name) == EXPECTED[name]


if __name__ == "__main__":
    for name in sorted(EXPECTED):
        print(f"    {name!r}: {_case(name)!r},")
