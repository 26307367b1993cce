"""Every ``ROADMAP item N`` cited in the code and the docs is a live item.

ROADMAP.md numbers its open items ``N. **Title**``; a retired slot keeps
its number without a title.  A citation of a number that is not a live
item points the reader at nothing, so ``src/``, ``tests/``,
``benchmarks/``, ``examples/`` and the docs may only cite live items.
CHANGES.md is history and cites items as they were numbered then.
"""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DOCS = ("README.md", "DESIGN.md", "EXPERIMENTS.md", "PAPER.md")
TREES = ("src", "tests", "benchmarks", "examples")

#: ``ROADMAP item 17``, ``ROADMAP items 6, 7 and 9`` (across line breaks).
_CITATION = re.compile(
    r"ROADMAP\s+items?\s+(\d+[a-z]?(?:\([a-z]\))?"
    r"(?:(?:\s*,\s*|\s+and\s+)\d+[a-z]?(?:\([a-z]\))?)*)"
)
_LIVE_ITEM = re.compile(r"^\s?(\d+)\.\s+\*\*", re.MULTILINE)


def live_items(roadmap: str) -> set[int]:
    return {int(number) for number in _LIVE_ITEM.findall(roadmap)}


def cited_items(text: str) -> list[int]:
    return [
        int(number)
        for group in _CITATION.findall(text)
        for number in re.findall(r"\d+", re.sub(r"\([a-z]\)", "", group))
    ]


def _sources():
    for name in DOCS:
        yield ROOT / name
    for tree in TREES:
        for suffix in ("*.py", "*.md"):
            yield from (ROOT / tree).rglob(suffix)


def test_every_roadmap_citation_names_a_live_item():
    live = live_items((ROOT / "ROADMAP.md").read_text(encoding="utf-8"))
    assert {1, 3, 17, 19} <= live and 2 not in live  # slot 2 is retired
    stale = [
        f"{path.relative_to(ROOT)}: item {number}"
        for path in _sources()
        if path.exists()
        for number in cited_items(path.read_text(encoding="utf-8"))
        if number not in live
    ]
    assert stale == []


def test_the_check_reads_every_citation_form():
    text = (
        "see ROADMAP item 4(a)–(c); ROADMAP items 6, 7 and 9b;\n"
        "and ROADMAP item\n17's lock; ROADMAP 2(a) is a section, not an item"
    )
    assert cited_items(text) == [4, 6, 7, 9, 17]
    roadmap = "1. **One**\n2. *(Retired.)*\n 3. **Three**\n"
    assert live_items(roadmap) == {1, 3}
    seeded = "ROADMAP" + " items 2a, 3"  # split, so this file cites nothing
    assert [n for n in cited_items(seeded) if n not in {1, 3}] == [2]
