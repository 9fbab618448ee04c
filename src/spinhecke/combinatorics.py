"""Partitions, compositions, permutations, staircase elements, shifted diagrams.

Conventions used throughout the package:

* partitions and compositions are tuples of positive integers; partitions are
  weakly decreasing, strict partitions strictly decreasing, odd partitions
  have all parts odd;
* permutations of [n] are tuples in one-line notation, ``sigma[k]`` being the
  image of k+1; multiplication composes as functions, ``(a*b)(x) = a(b(x))``;
* a word is a list of generator indices in [1, n-1]; the word ``[j1, ..., jL]``
  stands for the product ``s_{j1} ... s_{jL}``, so right-multiplying by s_j
  swaps the entries in positions j, j+1 of the one-line form;
* partitions render as comma-joined parts ("3,1"), words likewise
  ("2,1,3,2,3,1").

>>> w_gamma((3,))
((2, 3, 1), [1, 2])
>>> w_gamma((2, 1))
((2, 1, 3), [1])
>>> w_gamma_form((2, 3, 1, 5, 4))
(3, 2)
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from collections.abc import Iterator

Partition = tuple
Composition = tuple
Permutation = tuple

# ---------------------------------------------------------------------------
# partitions and compositions


def is_partition(parts: tuple) -> bool:
    return all(p >= 1 for p in parts) and all(
        parts[k] >= parts[k + 1] for k in range(len(parts) - 1)
    )


def is_strict(parts: tuple) -> bool:
    return is_partition(parts) and all(
        parts[k] > parts[k + 1] for k in range(len(parts) - 1)
    )


def enumerate_partitions(n: int, kind: str = "all") -> list:
    """All partitions of n of the given kind, in reverse-lexicographic order.

    kind is one of "all", "strict", "odd".

    >>> enumerate_partitions(3, "strict")
    [(3,), (2, 1)]
    >>> enumerate_partitions(3, "odd")
    [(3,), (1, 1, 1)]
    >>> enumerate_partitions(4)
    [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    """
    if kind not in ("all", "strict", "odd"):
        raise ValueError(f"unknown partition kind {kind!r}")
    out: list = []

    def rec(remaining: int, cap: int, prefix: list):
        if remaining == 0:
            out.append(tuple(prefix))
            return
        first = min(remaining, cap)
        if kind == "odd" and first % 2 == 0:
            first -= 1
        step = 2 if kind == "odd" else 1
        for part in range(first, 0, -step):
            prefix.append(part)
            rec(remaining - part, part - 1 if kind == "strict" else part, prefix)
            prefix.pop()

    if n == 0:
        return [()]
    rec(n, n, [])
    return out


def partition_str(parts: tuple) -> str:
    return ",".join(str(p) for p in parts)


def delta_stat(lam: tuple) -> int:
    """1 for an odd number of parts, 0 for an even number."""
    return len(lam) % 2


# ---------------------------------------------------------------------------
# permutations


def perm_identity(n: int) -> Permutation:
    return tuple(range(1, n + 1))


def perm_inverse(a: Permutation) -> Permutation:
    out = [0] * len(a)
    for pos, val in enumerate(a):
        out[val - 1] = pos + 1
    return tuple(out)


def perm_length(a: Permutation) -> int:
    """Number of inversions = Coxeter length.

    >>> perm_length((2, 3, 1))
    2
    """
    n = len(a)
    return sum(1 for x in range(n) for y in range(x + 1, n) if a[x] > a[y])


def perm_from_word(word, n: int) -> Permutation:
    line = list(range(1, n + 1))
    for j in word:
        if not 1 <= j <= n - 1:
            raise IndexError(f"generator index {j} out of range for n={n}")
        line[j - 1], line[j] = line[j], line[j - 1]
    return tuple(line)


def left_descents(a: Permutation) -> Iterator[int]:
    """Indices j with length(s_j * a) < length(a)."""
    inv = perm_inverse(a)
    for j in range(1, len(a)):
        if inv[j - 1] > inv[j]:
            yield j


def left_mul_s(j: int, a: Permutation) -> Permutation:
    """s_j * a: swaps the values j and j+1 wherever they sit."""
    return tuple(j + 1 if x == j else (j if x == j + 1 else x) for x in a)


def right_mul_s(a: Permutation, j: int) -> Permutation:
    """a * s_j: swaps positions j and j+1."""
    line = list(a)
    line[j - 1], line[j] = line[j], line[j - 1]
    return tuple(line)


def reduced_word(a: Permutation) -> list:
    """The lexicographically smallest reduced word.

    Built greedily: a reduced word can start with j exactly when j is a left
    descent, so taking the smallest left descent at each step minimizes the
    word letter by letter.

    >>> reduced_word((2, 3, 1))
    [1, 2]
    >>> reduced_word((1, 2, 3))
    []
    """
    word = []
    while True:
        j = next(left_descents(a), None)
        if j is None:
            return word
        word.append(j)
        a = left_mul_s(j, a)


def all_reduced_words(a: Permutation) -> list:
    """Every reduced word of a (can be large; meant for small lengths)."""
    if perm_length(a) == 0:
        return [[]]
    out = []
    for j in left_descents(a):
        for tail in all_reduced_words(left_mul_s(j, a)):
            out.append([j] + tail)
    return out


def cycle_type(a: Permutation) -> Partition:
    n = len(a)
    seen = [False] * n
    lengths = []
    for start in range(n):
        if seen[start]:
            continue
        size = 0
        x = start
        while not seen[x]:
            seen[x] = True
            x = a[x] - 1
            size += 1
        lengths.append(size)
    return tuple(sorted(lengths, reverse=True))


def min_length_class_representatives(n: int) -> dict:
    """{mu: every permutation of cycle type mu with the minimal length
    n - len(mu)}, each list in `itertools.permutations` order, from one pass
    over S_n."""
    reps: dict = {}
    for line in itertools.permutations(range(1, n + 1)):
        mu = cycle_type(line)
        if perm_length(line) == n - len(mu):
            reps.setdefault(mu, []).append(line)
    return reps


def word_str(word) -> str:
    return ",".join(str(j) for j in word)


def parse_word(text: str) -> list:
    text = text.strip()
    if not text:
        return []
    try:
        return [int(p) for p in text.split(",")]
    except ValueError as err:
        raise ValueError(f"bad word string {text!r}") from err


# ---------------------------------------------------------------------------
# staircase elements w_gamma


def w_gamma(gamma: Composition):
    """The block-staircase permutation of a composition and a reduced word.

    Block k covers positions b+1, ..., b+gamma_k and carries the ascending
    cycle (b+1, ..., b+gamma_k); the word concatenates s_{b+1}...s_{b+gamma_k-1}
    over the blocks.  Its length is n - len(gamma).  The reduced word need
    not be unique ((2, 2) has both [1, 3] and [3, 1]), but this one is the
    lexicographically smallest: letters of different blocks commute, and
    each block's letters ascend.
    """
    if any(p < 1 for p in gamma):
        raise ValueError("composition parts must be positive")
    n = sum(gamma)
    word = []
    offset = 0
    for part in gamma:
        word.extend(range(offset + 1, offset + part))
        offset += part
    return perm_from_word(word, n), word


def w_gamma_form(a: Permutation) -> Composition | None:
    """The composition gamma with a == w_gamma(gamma)[0], or None.

    These are exactly the permutations with a(p) <= p+1 for every p.
    """
    n = len(a)
    gamma = []
    p = 1
    while p <= n:
        if a[p - 1] == p:
            gamma.append(1)
            p += 1
            continue
        if a[p - 1] != p + 1:
            return None
        q = p + 1
        while q <= n and a[q - 1] == q + 1:
            q += 1
        if q > n or a[q - 1] != p:
            return None
        gamma.append(q - p + 1)
        p = q + 1
    return tuple(gamma)


# ---------------------------------------------------------------------------
# shifted diagrams


class ShiftedData(namedtuple("ShiftedData", "contents hooks n_stat delta")):
    """Hooks and contents attached to a strict partition.

    contents: per-cell j-1 in row-local coordinates (row i holds 0..lam_i-1).
    hooks: per-cell hook lengths of the shifted diagram, row by row; row i
        holds {1..lam_i} with lam_i + lam_j added and lam_i - lam_j removed
        for each j > i (Macdonald, Symmetric Functions, III.8), decreasing
        along the row.
    n_stat: sum of (i-1)*lam_i.
    delta: parity of the number of parts.
    """

    __slots__ = ()

    def all_hooks(self) -> list:
        return [h for row in self.hooks for h in row]

    def all_contents(self) -> list:
        return [c for row in self.contents for c in row]


def shifted_data(lam: tuple) -> ShiftedData:
    """Contents, shifted hook lengths, n(lam) and delta for strict lam.

    >>> shifted_data((4, 3, 1)).hooks
    ((7, 5, 4, 2), (4, 3, 1), (1,))
    >>> shifted_data((2,)).hooks
    ((2, 1),)
    >>> shifted_data((4, 3, 1)).n_stat
    5
    """
    if not is_strict(lam):
        raise ValueError(f"{lam} is not a strict partition")
    hooks = []
    for i, part in enumerate(lam):
        rest = lam[i + 1 :]
        row = set(range(1, part + 1)).difference(part - p for p in rest)
        row.update(part + p for p in rest)
        hooks.append(tuple(sorted(row, reverse=True)))
    return ShiftedData(
        contents=tuple(tuple(range(part)) for part in lam),
        hooks=tuple(hooks),
        n_stat=sum(i * part for i, part in enumerate(lam)),
        delta=delta_stat(lam),
    )
