"""Freely reduced words over edge instances.

A word is a product of edge instances and their formal inverses, kept in
reduced form (no x.x^-1 or x^-1.x next to each other).  Serialization uses
dots: "a.b^-1.f[3]"; the empty word prints as "1".  Copy indices appear only
when positive, so "f" means the 0th copy of f.

The seam rule: a product of two reduced words, and mu.nu^-1 for two paths
(whose letters are all positive), can cancel only where the factors meet.
The calculus counts the cancelled letters from the seam, slices once and
builds the result with the unchecked _trusted, so a product costs its
output, not a reduction over every letter.  Signs are +1 and -1, so two
letters are inverse when their generators match and their signs differ.
"""
from __future__ import annotations

import re
from itertools import repeat

from .graph import EdgeInstance, instance_token

_TOKEN = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*)(?:\[(\d+)\])?(\^-1)?$")


class WordError(ValueError):
    pass


def reduce(letters):
    """Free reduction of (generator, sign) letters."""
    out = []
    for let in letters:
        if out and out[-1][0] == let[0] and out[-1][1] == -let[1]:
            out.pop()
        else:
            out.append(let)
    return tuple(out)


def inverse(letters):
    """The inverse of a letter tuple: reversed, every sign flipped."""
    return tuple((gen, -sign) for gen, sign in reversed(letters))


def positive_negative_split(letters):
    """(positive gens, negative gens) if the letters read as a positive
    block followed by a negative block, else None.

    The negative gens come out reversed, i.e. in path order (range end
    first) for a word alpha.beta^-1.
    """
    pos = []
    neg = []
    for gen, sign in letters:
        if sign == 1:
            if neg:
                return None
            pos.append(gen)
        else:
            neg.append(gen)
    neg.reverse()
    return pos, neg


def ball(gens, radius):
    """Every reduced letter tuple of length <= radius over gens.

    Level by level; within a level, extensions follow the previous level's
    order, then generator order, +1 before -1.
    """
    frontier = [()]
    yield ()
    for _ in range(radius):
        nxt = []
        for w in frontier:
            for gen in gens:
                for sign in (1, -1):
                    if not (w and w[-1] == (gen, -sign)):
                        nxt.append(w + ((gen, sign),))
        yield from nxt
        frontier = nxt


class ReducedWord:
    """Element of the free group on edge instances.

    As with Path, the hash is filled on the first lookup.
    """

    __slots__ = ("letters", "_hash")

    def __init__(self, letters=()):
        self.letters = reduce(tuple(letters))
        self._hash = None

    @classmethod
    def from_path(cls, mu):
        return _trusted(tuple(zip(mu.instances, repeat(1))))

    @classmethod
    def from_pair(cls, mu, nu):
        """mu . nu^-1 for paths mu, nu: a shared tail of k instances cancels
        at the seam, and nothing else can."""
        m, n = mu.instances, nu.instances
        if m and n and m[-1] == n[-1]:
            k, top = 1, min(len(m), len(n))
            while k < top and m[-1 - k] == n[-1 - k]:
                k += 1
            m, n = m[:len(m) - k], n[:len(n) - k]
        return _trusted((*zip(m, repeat(1)), *zip(reversed(n), repeat(-1))))

    def __mul__(self, other):
        """Both factors are reduced, so letters cancel only at the seam."""
        if not isinstance(other, ReducedWord):
            return NotImplemented
        a, b = self.letters, other.letters
        if not (a and b and a[-1][0] == b[0][0] and a[-1][1] != b[0][1]):
            return _trusted(a + b)
        n = len(a)
        k, top = 1, min(n, len(b))
        while k < top and a[n - 1 - k][0] == b[k][0] and a[n - 1 - k][1] != b[k][1]:
            k += 1
        return _trusted(a[:n - k] + b[k:])

    def inverse(self):
        return _trusted(inverse(self.letters))

    def __len__(self):
        return len(self.letters)

    def __eq__(self, other):
        if not isinstance(other, ReducedWord):
            return NotImplemented
        return self.letters == other.letters

    def __hash__(self):
        h = self._hash
        if h is None:
            h = self._hash = hash(self.letters)
        return h

    def __repr__(self):
        return f"ReducedWord({str(self)!r})"

    def __str__(self):
        if not self.letters:
            return "1"
        return ".".join(instance_token(inst) + ("" if sign == 1 else "^-1")
                        for inst, sign in self.letters)

    @property
    def is_identity(self):
        return not self.letters

    def sort_key(self):
        """Length first, then the letters; a letter ((edge, copy), sign)
        compares as the flat (edge, copy, sign) would."""
        return (len(self.letters), self.letters)


def _trusted(letters: tuple) -> ReducedWord:
    """The word of a letter tuple, built without reducing it.

    Precondition: letters is a tuple that is already freely reduced, as
    trusted_path's instances already compose.
    """
    word = object.__new__(ReducedWord)
    word.letters = letters
    word._hash = None
    return word


def parse_word(text: str) -> ReducedWord:
    text = text.strip()
    if text in ("1", ""):
        return ReducedWord()
    letters = []
    for tok in text.split("."):
        m = _TOKEN.match(tok.strip())
        if not m:
            raise WordError(f"bad word token {tok!r}")
        eid, copy, inv = m.groups()
        letters.append((EdgeInstance(eid, int(copy) if copy else 0), -1 if inv else 1))
    return ReducedWord(letters)
