"""``clpslice stats`` output (table and ``--json`` rows) matches the
fixture pinned for every corpus goal file, directed and undirected."""

from __future__ import annotations

from stats_pins import FIXTURE_DIR, cases, record


def test_stats_match_pinned_output():
    seen = set()
    for case_id, name, undirected in cases():
        table, data = record(name, undirected)
        assert table == (FIXTURE_DIR / f"{case_id}.txt").read_text(), case_id
        assert data == (FIXTURE_DIR / f"{case_id}.json").read_text(), case_id
        seen |= {f"{case_id}.txt", f"{case_id}.json"}
    assert seen == {p.name for p in FIXTURE_DIR.iterdir()}
