"""Top-level acceptance gate: every check of ``axns.verify.CHECKS``.

``axns verify`` runs the same table, so each bound lives in one place.
Test ids are ``suite:name``.  Inputs read by several checks (the four
reference runs, the elliptic study, the sharp criteria constants, the
offline run) are cached per process by ``axns.verify``; `pytest -s` shows
each check's detail.
"""

import pytest

from axns.verify import CHECKS


@pytest.mark.parametrize("check", CHECKS, ids=[f"{c.suite}:{c.name}" for c in CHECKS])
def test_check(check):
    ok, detail = check.fn()
    print(detail)
    assert ok, detail
