"""Ideal calculus for three semigroup-in-group families.

Each family packages a subsemigroup sitting in a group, with its
constructible right ideals in closed form:

* tuples under addition inside the integer lattice, ideals = corner sets,
* the free monoid inside the free group, ideals = word cones,
* integer affine maps inside rational affine maps, ideals = arithmetic
  progressions paired with a multiplier constraint.

On top of the calculus sit checkers: independence of the ideal family,
the kernel of the action on limit characters, paradox witnesses on
ideal differences, a relation-shape hypothesis check, and a smallness
probe for descending stage ideals.
"""

import itertools
import math
import random
from fractions import Fraction

from . import words


class SemigroupError(Exception):
    pass


# ------------------------------------------------------------ lattice corners

class NkFamily:
    """Nonnegative integer tuples inside the full integer lattice.

    An ideal is a corner x + the whole positive cone; its offset tuple is
    the ideal.  Corners always meet, so the ideal lattice has no disjoint
    pairs at all.
    """

    def __init__(self, k: int):
        if k < 1:
            raise SemigroupError("need at least one coordinate")
        self.k = k

    def name(self):
        return f"N^{self.k} in Z^{self.k}"

    def _check(self, x):
        x = tuple(int(c) for c in x)
        if len(x) != self.k:
            raise SemigroupError(f"expected {self.k} coordinates")
        return x

    def principal(self, x):
        x = self._check(x)
        if any(c < 0 for c in x):
            raise SemigroupError("offsets live in the positive cone")
        return x

    def intersect(self, a, b):
        return tuple(max(p, q) for p, q in zip(self._check(a), self._check(b)))

    def contains(self, ideal, x):
        return all(c >= o for c, o in zip(self._check(x), self._check(ideal)))

    def independence_report(self, trials=50, seed=0):
        """A corner equals a union of subcorners only through itself.

        The corner point of the big ideal lies in a subcorner only if the
        offsets agree, which is the whole argument; the spot checks feed
        it concrete instances.
        """
        rng = random.Random(seed)
        checks = 0
        for _ in range(trials):
            x = tuple(rng.randrange(0, 5) for _ in range(self.k))
            subs = []
            for _ in range(rng.randrange(1, 4)):
                bump = [0] * self.k
                bump[rng.randrange(self.k)] = rng.randrange(1, 3)
                subs.append(tuple(a + b for a, b in zip(x, bump)))
            for s in subs:
                if self.contains(s, x):
                    return {"independent": False, "exact": True,
                            "counterexample": (x, s)}
            checks += 1
        return {"independent": True, "exact": True, "checks": checks}

    def g0_report(self):
        """Which group elements translate every ideal back into meeting
        the semigroup, in both directions: all of them.

        A shifted corner clipped at the axes is again a nonempty corner,
        whatever the shift, so the group acts without ever emptying an
        ideal.
        """
        return {
            "family": self.name(),
            "kernel_is_whole_group": True,
            "kernel_trivial": self.k == 0,
            "exact": True,
            "reason": "a shifted corner meets the positive cone at the "
                      "componentwise maximum with zero, in both directions",
        }


# ----------------------------------------------------------------- word cones

def _default_letters(n):
    if n <= 3:
        return tuple("xyz"[:n])
    return tuple(f"x{i + 1}" for i in range(n))


class FreeMonoidFamily:
    """Positive words inside the free group on n letters, n >= 2.

    An ideal is the cone of all words extending a stem; two cones are
    comparable or disjoint, nothing in between.
    """

    def __init__(self, n: int):
        if n < 2:
            raise SemigroupError("need at least two letters")
        self.n = n
        self.letters = _default_letters(n)

    def name(self):
        return f"F_{self.n}+ in F_{self.n}"

    def word(self, text):
        """A positive word from a tuple of letters or from its spelling,
        such as "xy" or "x1x2", split by longest match over the letters."""
        if not isinstance(text, str):
            w = tuple(text)
        else:
            w, rest = [], text
            while rest:  # a part no letter matches stays whole, to be refused
                c = max((l for l in self.letters if rest.startswith(l)),
                        key=len, default=rest)
                w.append(c)
                rest = rest[len(c):]
        for c in w:
            if c not in self.letters:
                raise SemigroupError(f"unknown letter {c!r}")
        return tuple(w)

    def contains(self, ideal, w):
        ideal = self.word(ideal)
        return self.word(w)[:len(ideal)] == ideal

    def independence_report(self, trials=50, seed=0):
        """A cone is not a finite union of proper subcones: the stem
        itself always escapes them."""
        rng = random.Random(seed)
        checks = 0
        for _ in range(trials):
            stem = tuple(rng.choice(self.letters)
                         for _ in range(rng.randrange(0, 4)))
            subs = [stem + tuple(rng.choice(self.letters)
                                 for _ in range(rng.randrange(1, 3)))
                    for _ in range(rng.randrange(1, 4))]
            for s in subs:
                if self.contains(s, stem):
                    return {"independent": False, "exact": True,
                            "counterexample": (stem, s)}
            checks += 1
        return {"independent": True, "exact": True, "checks": checks}

    # -- reduced group words as (letter, sign) tuples ----------------------

    def cone_meets(self, g, stem):
        """Whether g maps some point of the cone over `stem` into the
        positive words.

        g . stem . t is positive for some positive t exactly when the
        reduced product g . stem splits as p q^-1 with p, q positive
        (then t = q works, and nothing shorter can erase an interior
        negative letter).
        """
        u = tuple((l, 1) for l in stem)
        return words.positive_negative_split(words.reduce(tuple(g) + u)) is not None

    def g0_witness(self, w):
        """A cone that one direction of the word pushes clear off the
        positive words, so the word sits outside the meeting kernel."""
        w = words.reduce(w)
        if not w:
            raise SemigroupError("the empty word empties nothing")
        if words.positive_negative_split(w) is None:
            # an interior negative letter survives every positive append
            witness = {"direction": "forward", "cone": ""}
        elif all(s == 1 for _, s in w):
            v = next(l for l in self.letters if l != w[0][0])
            witness = {"direction": "inverse", "cone": v}
        else:
            # ends with some y^-1; a clashing letter keeps it stuck
            v = next(l for l in self.letters if l != w[-1][0])
            witness = {"direction": "forward", "cone": v}
        g = w if witness["direction"] == "forward" else words.inverse(w)
        if self.cone_meets(g, witness["cone"]):
            raise SemigroupError("witness construction degenerated")
        return witness

    def g0_report(self, bound=4):
        """Which group elements translate every cone back into meeting
        the positive words, in both directions: only the identity."""
        scanned = 0
        sample = []
        for w in words.ball(self.letters, bound):
            if not w:
                continue
            scanned += 1
            cert = self.g0_witness(w)
            if len(sample) < 5:
                sample.append((self._word_str(w), cert))
        return {
            "family": self.name(),
            "kernel_trivial": True,
            "kernel_is_whole_group": False,
            "exact": True,
            "scanned": scanned,
            "certificates": sample,
            "reason": "each nonempty reduced word empties some cone in one "
                      "direction: an interior negative letter survives any "
                      "positive append, and a clashing first letter blocks "
                      "the cancellation a pure power would need",
        }

    def _word_str(self, w):
        return ".".join(l if s == 1 else f"{l}^-1" for l, s in w) or "1"


# ------------------------------------------------------ arithmetic progressions

class Progression:
    """r + mZ with m >= 1 and the representative reduced mod m."""

    __slots__ = ("r", "m")

    def __init__(self, r: int, m: int):
        if m < 1:
            raise SemigroupError("modulus must be positive")
        self.m = int(m)
        self.r = int(r) % self.m

    def __contains__(self, x):
        return x % self.m == self.r

    def __eq__(self, other):
        if not isinstance(other, Progression):
            return NotImplemented
        return self.r == other.r and self.m == other.m

    def __hash__(self):
        return hash((Progression, self.r, self.m))

    def intersect(self, other):
        g = math.gcd(self.m, other.m)
        if (other.r - self.r) % g:
            return None
        l = math.lcm(self.m, other.m)
        m2 = other.m // g
        # lift: r + m*t must hit other.r mod other.m
        t = 0 if m2 == 1 else \
            ((other.r - self.r) // g * pow(self.m // g, -1, m2)) % m2
        return Progression(self.r + self.m * t, l)

    def __repr__(self):
        return f"Progression({self.r}, {self.m})"

    def __str__(self):
        return f"{self.r}+{self.m}Z"


class AffineFamily:
    """Integer affine maps inside rational affine maps.

    A pair (b, a) acts as x -> b + a x; the principal ideal of (b, a)
    collects pairs whose translation part runs through b + aZ and whose
    multiplier is a nonzero multiple of a, so a progression captures it.
    """

    def name(self):
        return "Z x Z* in Q x Q*"

    def contains(self, ideal: Progression, pair):
        """Pair membership: translation in the progression, multiplier a
        nonzero multiple of its modulus."""
        y, c = pair
        return y in ideal and c != 0 and c % ideal.m == 0

    def independence_report(self, bound=6):
        """A progression never is a finite union of proper subprogressions.

        Pick a multiplier with a fresh prime factor: the pair it forms
        with the residue representative escapes every proper part.  The
        scan instantiates that argument for all moduli up to the bound.
        """
        checks = 0
        for m in range(1, bound + 1):
            for r in range(m):
                big = Progression(r, m)
                # these subprogressions jointly cover every residue of big,
                # so only the multiplier coordinate can save independence
                subs = [Progression(r + m * j, m * q)
                        for q in (2, 3) for j in range(q)]
                p = _next_prime_above(max(s.m for s in subs))
                witness = (r, m * p)
                assert self.contains(big, witness)
                for s in subs:
                    if s != big and self.contains(s, witness):
                        return {"independent": False, "exact": True,
                                "counterexample": (str(big), str(s))}
                checks += 1
        return {"independent": True, "exact": True, "checks": checks}

    def translate_meets(self, beta: Fraction, alpha: Fraction,
                        ideal: Progression) -> bool:
        """Whether (beta, alpha) maps some ideal point back onto an
        integer pair.

        The multiplier coordinate always cooperates (scale c by the
        denominator of alpha).  The translation lands on beta + alpha y
        with y = r + mk, so an integer hit exists exactly when the
        denominator of beta + alpha r divides that of alpha m.
        """
        q = beta + alpha * ideal.r
        d = alpha * ideal.m
        return d.denominator % q.denominator == 0

    def _forward_fail(self, beta: Fraction, alpha: Fraction):
        # among the denominator-of-alpha many residues one must miss,
        # else consecutive hits would force alpha itself integral
        m = alpha.denominator
        for r in range(m):
            cand = Progression(r, m)
            if not self.translate_meets(beta, alpha, cand):
                return cand
        return None

    def g0_witness(self, beta, alpha):
        """An ideal that one direction of the pair translates clean off
        the integer pairs."""
        beta, alpha = Fraction(beta), Fraction(alpha)
        if alpha == 0:
            raise SemigroupError("multiplier must be nonzero")
        hit = self._forward_fail(beta, alpha)
        if hit is not None:
            return {"direction": "forward", "ideal": str(hit)}
        hit = self._forward_fail(-beta / alpha, 1 / alpha)
        if hit is None:
            raise SemigroupError("both directions meet every ideal")
        return {"direction": "inverse", "ideal": str(hit)}

    def g0_report(self, bound=2):
        """Which group elements translate every ideal back into meeting
        the integer pairs, in both directions: the integer shifts with
        multiplier 1 or -1, i.e. exactly the units of the semigroup.

        Forward meeting for every progression forces the pair integral
        (take the modulus to be the multiplier's denominator); meeting
        both ways then pins the multiplier to a sign.  That group is
        infinite, so no smallness certificate accompanies the verdict.
        """
        scanned = 0
        members = 0
        sample = []
        battery = [Progression(r, m) for m in range(1, 5) for r in range(m)]
        for s, t, u, v in itertools.product(
                range(-bound, bound + 1), range(1, bound + 1),
                range(-bound, bound + 1), range(1, bound + 1)):
            if u == 0:
                continue
            beta = Fraction(s, t)
            alpha = Fraction(u, v)
            scanned += 1
            if beta.denominator == 1 and alpha in (1, -1):
                members += 1
                for x in battery:
                    assert self.translate_meets(beta, alpha, x)
                    assert self.translate_meets(-beta / alpha, 1 / alpha, x)
                continue
            cert = self.g0_witness(beta, alpha)
            if len(sample) < 5:
                sample.append(((str(beta), str(alpha)), cert))
        return {
            "family": self.name(),
            "g0": "integer shifts with multiplier 1 or -1",
            "kernel_trivial": False,
            "kernel_is_whole_group": False,
            "infinite": True,
            "exact": True,
            "scanned": scanned,
            "members_sampled": members,
            "witnesses": sample,
            "units_finite": False,
            "uniqueness_certificate": None,
            "note": "the unit group is infinite and already translates "
                    "every progression onto one with the same modulus, so "
                    "the meeting kernel equals it and carries no smallness "
                    "certificate",
        }


def _next_prime_above(n: int) -> int:
    c = max(2, n + 1)
    while True:
        if all(c % d for d in range(2, int(c ** 0.5) + 1)):
            return c
        c += 1


# ------------------------------------------------------------ paradox witnesses

def boundary_paradox_witness(family, ideal, exclusions=(), depth=8):
    """A paradoxical pair on an ideal minus finitely many subideals.

    Only word cones support the search directly; lattice corners always
    meet, so the request is refused there, and the affine family routes
    to the arithmetic construction.
    """
    if isinstance(family, NkFamily):
        raise SemigroupError(
            "corner ideals pairwise meet; no paradoxical pair can exist")
    if isinstance(family, AffineFamily):
        return axb_paradox_witness(family, ideal, exclusions)
    if not isinstance(family, FreeMonoidFamily):
        raise SemigroupError(f"unsupported family {family!r}")

    stem = family.word(ideal)
    excl = [family.word(w) for w in exclusions]
    horizon = max([len(w) for w in excl] + [len(stem)])
    if horizon > depth:
        culprit = "the ideal runs" if len(stem) > depth else "exclusions run"
        raise SemigroupError(f"{culprit} past the search depth")

    def blocked(w):
        return any(w[:len(e)] == e for e in excl)

    # a word past a blocked prefix is blocked, so the first unblocked word
    # of full length in letter order is what a depth-first search would find
    words = (stem + t for t in itertools.product(family.letters, repeat=horizon - len(stem)))
    base = next((w for w in words if not blocked(w)), None)
    if base is None:
        return None
    tail = family.letters[0]
    chi = ("".join(base) + "." if base else "") + f"({tail})^inf"
    wa = base + (family.letters[0],)
    wb = base + (family.letters[1],)
    verified = (not blocked(base)
                and all(len(e) <= len(base) for e in excl)
                and wa[:len(stem)] == stem and wa != wb)
    label = "".join(stem) or "1"
    if excl:
        label += "; " + ", ".join("".join(e) for e in excl)
    return {
        "set": f"U({label})",
        "character": chi,
        "ideal": "".join(base),
        "pair": ("".join(wa), "".join(wb)),
        "verified": verified,
    }


def axb_paradox_witness(family, ideal: Progression, exclusions=()):
    """Duplicate a progression-minus-progressions set with affine maps.

    J is the common refinement, a progression through 0 with modulus
    J.m >= 1.  The multiplier a is the least positive element past 1 of
    J shifted by one: 1 + J.m >= 2, so a = J.m + 1.  The second
    translation delta is the least positive element of J outside aZ:
    J.m mod (J.m + 1) = J.m != 0, so delta = J.m.  Everything is
    certified by an exhaustive residue sweep; None when no residue lies
    in the set, which is then empty.  The sweep holds every residue, so a
    modulus past 10**6 is refused.
    """
    if not isinstance(family, AffineFamily):
        raise SemigroupError("arithmetic witnesses need the affine family")
    J = ideal
    for e in exclusions:
        J = J.intersect(e)
        if J is None:
            raise SemigroupError("exclusions never meet the ideal")
    if J.r != 0:
        raise SemigroupError("progressions must refine through 0")

    a, delta = J.m + 1, J.m
    modulus = ideal.m * J.m * a
    if modulus > 10**6:
        raise SemigroupError(f"residue sweep of modulus {modulus} is past 10**6")
    in_u = [x in ideal and not any(x in e for e in exclusions)
            for x in range(modulus)]
    if not any(in_u):
        return None
    ok = True
    images = ([], [])
    for x in range(modulus):
        if not in_u[x]:
            continue
        for which, b in enumerate((0, delta)):
            y = (a * x + b) % modulus
            if not in_u[y]:
                ok = False
            images[which].append(y)
    # residue-level disjointness implies exact disjointness
    if set(images[0]) & set(images[1]):
        ok = False
    return {
        "J": str(J),
        "a": a,
        "delta": delta,
        "witnesses": [(0, a), (delta, a)],
        "modulus": modulus,
        "verified": ok,
    }


# ----------------------------------------------------------- hypothesis checks

def rcomplete_hypothesis_check(generators, relations):
    """For every generator, some partner never co-leads a relation.

    A relation co-leads with {u, v} when its two sides start with u and v
    in some order.  Partners are reported smallest first.
    """
    leads = set()
    for lhs, rhs in relations:
        if not lhs or not rhs:
            raise SemigroupError("relations need nonempty sides")
        leads.add(frozenset((lhs[0], rhs[0])))
    partners = {}
    for u in generators:
        for v in generators:
            if v != u and frozenset((u, v)) not in leads:
                partners[u] = v
                break
        else:
            return {"holds": False, "stuck_at": u}
    return {"holds": True, "partners": partners}


def thompson_truncated(count=4):
    """Generators x1..x_count with x_j x_i = x_i x_{j+1} while indices fit."""
    gens = [f"x{i + 1}" for i in range(count)]
    rels = []
    for i in range(count):
        for j in range(i + 1, count):
            if j + 1 < count:
                rels.append(((gens[j], gens[i]), (gens[i], gens[j + 1])))
    return gens, rels


def boundary_minimality_probe(family, stages):
    """Meet the stage ideals one by one; the filter stays proper when
    every partial meet survives, and the final meet's character grants
    every stage the value one."""
    if isinstance(family, AffineFamily):
        meet = Progression(0, 1)
        partial = []
        for m in stages:  # progressions through 0 always meet
            meet = meet.intersect(Progression(0, m))
            partial.append(str(meet))
        return {
            "proper_filter": True,
            "stage_meets": partial,
            "meet": str(meet),
            "meet_modulus": meet.m,
            "character_on_stages": {str(m): 1 for m in stages},
        }
    if isinstance(family, NkFamily):
        meet = family.principal((0,) * family.k)
        partial = []
        for x in stages:
            meet = family.intersect(meet, family.principal(x))
            partial.append(meet)
        return {"proper_filter": True, "stage_meets": partial, "meet": meet}
    raise SemigroupError(
        "stage ideals of distinct word cones never meet; no probe there")
