"""The negative control: a latch protocol that validates nothing (tests only).

:class:`BrokenProtocol` descends like the page protocol but never
validates, and applies an insert into the traversal's leaf without latching
it or bumping any version.  When a concurrent split moves the leaf's key
range mid-descent, the entry lands in a page proper descents no longer
route to — an acknowledged-then-lost update, the known-bad history the
linearizability checker must reject.  It is not a served mode:
``DbmsServer(concurrency="broken")`` is a ValueError.
"""

from __future__ import annotations

from contextlib import nullcontext

from repro.btree.cc import PageProtocol


class BrokenProtocol(PageProtocol):
    def validate(self, pid, token) -> bool:
        return True

    def lock_leaf(self, tree, pid, token, owner):
        return True
        yield  # unreachable: makes this a generator

    def unlatch(self, pids, owner) -> None:
        pass

    def structural(self, held):
        return nullcontext()


def break_latches(server):
    """Swap a page-latched server's protocol for the broken one."""
    assert server.latches is not None, "needs a server built with concurrency='page'"
    server.protocol = BrokenProtocol(server.latches, server.retry_budget)
    return server
