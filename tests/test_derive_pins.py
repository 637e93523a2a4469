"""derive's full output (trees, groundness events, NoSolution deepest
trees) matches the fixture pinned from the whole-store solver."""

from __future__ import annotations

import json

from derive_pins import FIXTURE, cases, record


def test_derive_matches_pinned_output():
    pins = json.loads(FIXTURE.read_text())
    seen = []
    for case_id, program, goal, k in cases():
        seen.append(case_id)
        assert record(program, goal, k) == pins[case_id], case_id
    assert sorted(seen) == sorted(pins)
