"""The tracked simplicity metric: total lines of ``src/**/*.py``.

ROADMAP aim 2 wants ``src/`` to shrink this round.  The ceiling is the
last PR's result rounded up to the next 50; a PR that removes code lowers
it, a PR that must grow ``src/`` raises it on purpose, in the diff, where
a reviewer sees it.
"""

from pathlib import Path

SRC_LINE_CEILING = 21_450


def test_src_line_count_stays_under_the_committed_ceiling():
    src = Path(__file__).parent.parent / "src"
    total = sum(len(p.read_text().splitlines()) for p in src.rglob("*.py"))
    assert total <= SRC_LINE_CEILING, (
        f"src/ is {total} lines, over the committed ceiling {SRC_LINE_CEILING}: "
        "delete what the change made unnecessary, or raise the ceiling in this test"
    )
