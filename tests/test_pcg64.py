"""plap's pure-Python copy of the ``numpy.random.default_rng`` stream (``plap._pcg64``).

verify draws its seeded cases from it, so the board's cases are numpy's only
if every draw is: here the two generators make the same calls in the same
seeded order, and each pair of draws must be equal.
"""

import random

import numpy as np
import pytest

from plap._pcg64 import Generator
from plap.verify import _SEED

# integers() spans: hi - lo == 1 draws nothing; spans just above 2**31 reject
# about half their 32-bit draws (Lemire); 2**32 is the widest 32-bit span.
SPANS = [1, 2, 3, 7, 9, 10, 1000, 2**31 - 1, 2**31, 2**31 + 1, 3 << 30, 2**32 - 1, 2**32]
SEEDS = [_SEED + k for k in range(6)] + [0, 2**40 + 17, (1 << 140) + 2**64 + 3]
DRAWS = 12_000


def plan(seed):
    """DRAWS calls (method, *args), in an order and with arguments drawn from seed."""
    pick = random.Random(seed)
    calls = []
    for _ in range(DRAWS):
        kind = pick.randrange(5)
        if kind < 2:
            low = pick.randrange(-2**31, 2**31)
            calls.append(("integers", low, low + pick.choice(SPANS)))
        elif kind < 4:
            low = pick.uniform(-10.0, 10.0)
            calls.append(("uniform", low, low + pick.uniform(0.0, 20.0)))
        else:
            calls.append(("random",))
    return calls


@pytest.mark.parametrize("seed", SEEDS)
def test_draw_for_draw_equal_to_numpy(seed):
    ours, theirs = Generator(seed), np.random.default_rng(seed)
    for i, (method, *args) in enumerate(plan(seed)):
        got, want = getattr(ours, method)(*args), getattr(theirs, method)(*args)
        assert type(got) is (int if method == "integers" else float)
        assert got == want, f"draw {i}: {method}{tuple(args)} gave {got!r}, numpy {want!r}"


def test_plan_covers_rejection_and_the_unit_span():
    calls = plan(_SEED)
    spans = {c[2] - c[1] for c in calls if c[0] == "integers"}
    assert {1, 2**31 + 1, 2**32} <= spans
    assert {c[0] for c in calls} == {"integers", "uniform", "random"}


def test_rejects_empty_and_64_bit_spans_and_negative_seeds():
    gen = Generator(0)
    for low, high in ((0, 0), (3, 2), (0, 2**32 + 1)):
        with pytest.raises(ValueError, match="high - low"):
            gen.integers(low, high)
    with pytest.raises(ValueError, match="non-negative"):
        Generator(-1)
