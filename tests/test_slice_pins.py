"""``clpslice slice`` output (exit code, stdout, stderr, warnings and the
``--json`` report) matches the fixture pinned for every corpus goal."""

from __future__ import annotations

import json

import pytest

from derive_pins import CORPUS_PROGRAMS
from slice_pins import FIXTURE_DIR, cases, record


@pytest.mark.parametrize("name", CORPUS_PROGRAMS)
def test_slice_matches_pinned_output(name):
    pinned = json.loads((FIXTURE_DIR / f"{name}.json").read_text())
    seen = []
    for program, case_id, goal, flags in cases():
        if program != name:
            continue
        assert record(name, goal, flags) == pinned[case_id], case_id
        seen.append(case_id)
    assert sorted(seen) == sorted(pinned)


def test_every_corpus_program_is_pinned():
    assert {p.name for p in FIXTURE_DIR.iterdir()} == {f"{n}.json" for n in CORPUS_PROGRAMS}
