"""The ``board`` workload: the twelve-criterion ``verify`` board, as ``plap verify`` runs it.

The deck is one input, the whole board: one call runs criteria 1..12 through
``verify.run_one`` in order.  Each call is made in a fresh interpreter, so it
starts from the cold caches ``plap verify`` starts from.  The seed does not
enter: the board's inputs are fixed by ``verify`` itself.
"""

from __future__ import annotations

EXPECTED_FAIL = frozenset({9})  # criterion 9 is red by design


def pattern_ok(graded) -> bool:
    """Whether a board came out as 11 PASS with criterion 9 FAIL."""
    return [verdict == "ok" for verdict, _, _ in graded] == [
        k not in EXPECTED_FAIL for k in range(1, 13)]


class BoardLoad:
    unit = "criteria"

    def __init__(self, seed: int, plap):
        self.verify = plap.verify
        self.deck = [tuple(range(1, len(self.verify.CRITERIA) + 1))]

    def call(self, i: int):
        """The timed operation: one full board."""
        return [self.verify.run_one(k) for k in self.deck[i]]

    def grade(self, i: int, results, exc) -> list[tuple[str, str, tuple]]:
        """(verdict, board line, fingerprint) per criterion; verdict is ok|failed|error."""
        if exc is not None:
            return [("error", f"board raised {exc!r}", ("error",))]
        return [("ok" if res.passed else "failed", res.line(), (bool(res.passed),))
                for res in results]
