"""Fixtures shared by the test modules."""

import pytest

from qkbw import casimir, identities


@pytest.fixture
def fresh_memos(monkeypatch):
    """Swap the per-process memos for empty dicts for one test: the summand
    tables of ``casimir._tables``, with the moment sums their rows keep, and
    the bundle contexts of ``identities._contexts``, which hold the identity
    sets, the operator rows and the identity side that ``bounds.bound_for``
    keeps for the bound LP, one per hpn, with the dual's phase-1 start of
    each sign.  Every reader looks the context up in the module's dict on
    each call, so the swapped dict is the one it reads and fills.

    A test that patches what a memo entry is built from, or counts what a
    build reads, takes this fixture: no entry built before the patch serves
    it, and none built under the patch outlives it.
    """
    monkeypatch.setattr(casimir, "_tables", {})
    monkeypatch.setattr(identities, "_contexts", {})
