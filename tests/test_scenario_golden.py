"""Cross-commit golden fixture for the committed smoke-matrix payloads.

``tests/data/scenario_golden.json`` holds, for each smoke matrix under
``benchmarks/scenarios/``, a digest of the exact ``--json`` payload that
``python -m repro.bench scenario --matrix FILE --json OUT`` writes (specs
echoed next to every row and note), plus its scenario and row counts.
A change to a cell body, the validator's defaults or the merge order that
moves one number fails here by matrix name.

Regenerate only when a payload change is intended, from the repository
root::

    PYTHONPATH=src python -m tests.test_scenario_golden --write
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.scenario import load_matrix, matrix_payload, run_matrix

FIXTURE = Path(__file__).parent / "data" / "scenario_golden.json"
SCENARIO_DIR = Path(__file__).resolve().parent.parent / "benchmarks" / "scenarios"

MATRICES = ("batch_smoke", "chaos_smoke", "concurrency_smoke", "serve_smoke", "shard_smoke")


def fingerprint(matrix: str) -> dict:
    specs = load_matrix(SCENARIO_DIR / f"{matrix}.toml")
    payload = matrix_payload(specs, run_matrix(specs))
    # The same bytes the CLI's --json writes.
    text = json.dumps(payload, indent=2, sort_keys=True)
    return {
        "scenarios": len(payload["scenarios"]),
        "rows": sum(len(entry["rows"]) for entry in payload["scenarios"]),
        "payload_sha256": hashlib.sha256(text.encode()).hexdigest(),
    }


def load_fixture() -> dict:
    with open(FIXTURE) as handle:
        return json.load(handle)["matrices"]


@pytest.mark.parametrize("matrix", MATRICES)
def test_smoke_matrix_payload_matches_golden(matrix):
    assert fingerprint(matrix) == load_fixture()[matrix]


def write_fixture() -> None:
    matrices = {matrix: fingerprint(matrix) for matrix in MATRICES}
    with open(FIXTURE, "w") as handle:
        json.dump({"matrices": matrices}, handle, indent=2, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python -m tests.test_scenario_golden --write")
    write_fixture()
