"""cayley-lengths: the length function of F2 acting on a Cayley ball.

The conjugacy classes of F(a, b) up to a fixed cyclic length are listed
by the benchmark's own enumeration.  A round takes every class shorter
than that length and a seeded half of the longest ones; the half keeps
the median latency inside one cluster (the classes one letter shorter)
instead of on the edge between two.  Each class is handed to the program
as a seeded conjugate representative (a random rotation, wrapped in a
random conjugating letter), in a seeded order.  One operation evaluates one
class with ``length_function`` on the Cayley-ball action built in set-up.
The check: the length equals the class's cyclic word length, which the
benchmark computes itself.
"""

from __future__ import annotations

import random

from common import Op, expect
from lambdatrees import lengths

NAME = "cayley-lengths"
# size -> (ball radius, longest cyclic class length)
SIZES = {"full": (5, 5), "tiny": (3, 2)}
LETTERS = (("a", 1), ("a", -1), ("b", 1), ("b", -1))


def _inverse(letter):
    return (letter[0], -letter[1])


def _free_reduce(word):
    out = []
    for letter in word:
        if out and out[-1] == _inverse(letter):
            out.pop()
        else:
            out.append(letter)
    return out


def cyclic_length(word) -> int:
    """Length of the cyclically reduced form of a word."""
    w = _free_reduce(word)
    while len(w) >= 2 and w[0] == _inverse(w[-1]):
        w = w[1:-1]
    return len(w)


def cyclic_classes(max_length: int):
    """One cyclically reduced representative per class, lengths 1..max."""
    seen = set()
    out = []
    words = [()]
    for _ in range(max_length):
        longer = []
        for w in words:
            for letter in LETTERS:
                if w and w[-1] == _inverse(letter):
                    continue
                longer.append(w + (letter,))
        words = longer
        for w in words:
            if w[0] == _inverse(w[-1]):
                continue
            key = min(w[i:] + w[:i] for i in range(len(w)))
            if key not in seen:
                seen.add(key)
                out.append(key)
    return out


def text(word) -> str:
    return " ".join(sym if sign > 0 else sym + "-" for sym, sign in word)


def representative(word, rng: random.Random):
    """A conjugate of the class word: rotated, then wrapped by x ... x^-1."""
    i = rng.randrange(len(word))
    rotated = word[i:] + word[:i]
    x = rng.choice(LETTERS)
    return (x,) + rotated + (_inverse(x),)


def check_length(expected: int):
    def check(answer):
        expect(answer == [str(expected)],
               f"length {answer} differs from cyclic length {expected}")
    return check


def setup(seed: int, size: str = "full"):
    radius, max_length = SIZES[size]
    rng = random.Random(seed)
    classes = cyclic_classes(max_length)
    shorter = [c for c in classes if len(c) < max_length]
    longest = [c for c in classes if len(c) == max_length]
    classes = shorter + rng.sample(longest, len(longest) // 2)
    rng.shuffle(classes)
    _, action = lengths.free_group_action(["a", "b"], radius)
    ops = []
    for cls in classes:
        word = representative(cls, rng)
        rep = text(word)

        def run(rep=rep):
            return lengths.length_function(action, [rep]).values[0].to_json()

        ops.append(Op(f"class {rep}", run, check_length(cyclic_length(word))))
    return ops
