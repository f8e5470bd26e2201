"""Test configuration: make helper modules in this directory importable."""

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))

from page_walk import checked_page_entries as _checked_page_entries  # noqa: E402


@pytest.fixture(scope="module")
def checked_page_entries():
    """Module-wide: every cached page pair is recomputed and compared on use.

    Modules opt in with ``pytestmark = pytest.mark.usefixtures(...)``.
    """
    with _checked_page_entries():
        yield
