import itertools
import random

import pytest

from gforge import corpus
from gforge.graph import EdgeInstance
from gforge.words import (ReducedWord, WordError, _trusted, ball, inverse, parse_word,
                          positive_negative_split, reduce)


def w(text):
    return parse_word(text)


def test_identity_spellings():
    assert w("1") == ReducedWord()
    assert w("1").is_identity
    assert str(ReducedWord()) == "1"


def test_parse_and_print_roundtrip():
    for text in ["a", "a.b", "a.b^-1", "f[3]", "f[3]^-1.a", "p1.q2^-1"]:
        assert str(w(text)) == text


def test_parse_rejects_garbage():
    for text in ["a..b", "a^2", "[3]", "a[", "a]", "a^-1^-1", "-a"]:
        with pytest.raises(WordError):
            w(text)


def test_copy_zero_prints_bare():
    word = ReducedWord([(EdgeInstance("f", 0), 1), (EdgeInstance("f", 1), -1)])
    assert str(word) == "f.f[1]^-1"
    assert parse_word("f.f[1]^-1") == word


def test_free_reduction():
    assert w("a.a^-1").is_identity
    assert w("a.b.b^-1.a^-1").is_identity
    assert w("a.b.b^-1.c") == w("a.c")
    assert w("a.a^-1.a") == w("a")      # reduces stepwise, not to nothing


def test_group_laws_exhaustive():
    # all reduced words of length <= 3 over two letters
    gens = [EdgeInstance("a", 0), EdgeInstance("b", 0)]
    words = [ReducedWord(t) for t in ball(gens, 3)]
    assert len(words) == 1 + 4 + 12 + 36
    e = ReducedWord()
    for u in words:
        assert u * e == u == e * u
        assert u * u.inverse() == e == u.inverse() * u
    for u in words:
        for v in words:
            for t in words:
                assert (u * v) * t == u * (v * t)


def test_ball_lists_reduced_tuples_level_by_level():
    gens = ["x", "y", "z"]
    letters = [(l, s) for l in gens for s in (1, -1)]
    want = [t for n in range(4) for t in itertools.product(letters, repeat=n)
            if reduce(t) == t]
    assert list(ball(gens, 3)) == want
    assert list(ball(gens, 0)) == [()]
    # a letter tuple times its inverse reduces to nothing
    for t in want:
        assert reduce(t + inverse(t)) == () == reduce(inverse(t) + t)


def test_group_laws_sampled_long():
    letters = [(EdgeInstance(x, 0), s) for x in "abc" for s in (1, -1)]
    rng = random.Random(7)
    mk = lambda n: ReducedWord(rng.choice(letters) for _ in range(n))
    for _ in range(300):
        u, v, t = mk(rng.randint(4, 6)), mk(rng.randint(4, 6)), mk(rng.randint(4, 6))
        assert (u * v) * t == u * (v * t)
        assert (u * v).inverse() == v.inverse() * u.inverse()


def test_from_pair_cancels_shared_tail():
    g = corpus.g2()
    mu = g.path_of("a", "b")
    nu = g.path_of("b", "b")
    word = ReducedWord.from_pair(mu, nu)
    assert str(word) == "a.b^-1"      # the shared last b cancels
    assert ReducedWord.from_pair(mu, mu).is_identity


def test_words_hash_as_their_letters():
    """The hash, filled on first use, is that of the letter tuple however
    the word was built, so equal words built different ways dedupe."""
    g = corpus.g2()
    ab, bb = g.path_of("a", "b"), g.path_of("b", "b")
    u = w("a.b^-1")
    built = [
        ReducedWord(u.letters), ReducedWord(u.letters + u.inverse().letters),
        _trusted(u.letters), _trusted(()),
        ReducedWord.from_pair(ab, bb), ReducedWord.from_pair(ab, ab),
        w("a") * w("b^-1"), u * u.inverse(), u * u,
        u.inverse(), u.inverse().inverse(),
    ]
    for word in built:
        # the first call fills the slot, the second reads it
        assert hash(word) == hash(word) == hash(word.letters), word
    same = [u, ReducedWord(u.letters), _trusted(u.letters), ReducedWord.from_pair(ab, bb),
            w("a") * w("b^-1"), u.inverse().inverse()]
    assert set(same) == {u} and len({*same, u.inverse()}) == 2


def test_positive_negative_split():
    pos, neg = positive_negative_split(w("a.b.c^-1").letters)
    assert pos == [EdgeInstance("a", 0), EdgeInstance("b", 0)]
    assert neg == [EdgeInstance("c", 0)]
    assert positive_negative_split(w("a^-1.b").letters) is None
    assert positive_negative_split(w("1").letters) == ([], [])
    pos, neg = positive_negative_split(w("b^-1.a^-1").letters)
    assert pos == [] and neg == [EdgeInstance("a", 0), EdgeInstance("b", 0)]
    # letters of any kind, as the semigroup families use it
    assert positive_negative_split((("x", 1), ("y", 1), ("x", -1))) == (["x", "y"], ["x"])
    assert positive_negative_split((("x", -1), ("y", 1))) is None


def test_sort_key_orders_by_length_first():
    ws = [w("b"), w("a.a"), w("a"), w("1")]
    ws.sort(key=ReducedWord.sort_key)
    assert [str(x) for x in ws] == ["1", "a", "b", "a.a"]


def test_from_pair_with_an_empty_half():
    g = corpus.g2()
    ab, v = g.path_of("a", "b"), g.vertex_path("v")
    assert ReducedWord.from_pair(ab, v) == w("a.b")
    assert ReducedWord.from_pair(v, ab) == w("b^-1.a^-1")
    assert ReducedWord.from_pair(v, v).is_identity


def test_from_pair_of_equal_paths_is_the_identity():
    g = corpus.g1()
    mu = g.path_of(*["a"] * 250)
    word = ReducedWord.from_pair(mu, mu)
    assert word.is_identity and word == ReducedWord() and hash(word) == hash(ReducedWord())


def test_product_with_the_inverse_is_the_identity():
    u = w(".".join(["a", "b^-1", "c", "c", "a"] * 50))
    assert len(u) == 250
    assert (u * u.inverse()).is_identity and (u.inverse() * u).is_identity
    assert u * u.inverse() == ReducedWord()


def test_cancellation_through_the_whole_shorter_factor():
    long, short = w("a.b.c.d"), w("d^-1.c^-1")
    assert long * short == w("a.b")
    assert short.inverse() * long.inverse() == w("b^-1.a^-1")
    # the shorter factor cancels whole and the seam stops at the longer one
    assert w("a.b") * w("b^-1.a^-1.c") == w("c")
    assert w("c^-1.a.b") * w("b^-1.a^-1") == w("c^-1")
    # a stop inside the seam: b^-1 against b^-1 does not cancel
    assert w("a.b^-1") * w("b^-1.a^-1") == w("a.b^-1.b^-1.a^-1")


def reference_sort_key(word):
    """sort_key as first written: one flat (edge, copy, sign) per letter."""
    return (len(word.letters), tuple((e, c, s) for (e, c), s in word.letters))


def test_sort_key_orders_as_the_per_letter_key():
    words = [ReducedWord(t) for t in ball(
        [EdgeInstance("b", 1), EdgeInstance("a", 0), EdgeInstance("b", 0)], 3)]
    words.reverse()
    assert sorted(words, key=ReducedWord.sort_key) == sorted(words, key=reference_sort_key)
