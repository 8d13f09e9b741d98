"""Path-pair inverse semigroup of a graph, truncated to a finite depth.

Elements are pairs (mu, nu) of paths with a common source, together with a
zero.  (mu, nu) stands for the partial substitution sending nu.x to mu.x;
multiplication composes these, with 0 for empty overlap.  Idempotents are the
pairs (mu, mu); on them the order runs opposite to length, so the filters of
the truncated meet-semilattice are exactly the prefix chains of single paths.
"""
from __future__ import annotations

from bisect import bisect_right
from itertools import product

# DomainError lives in boundary, where act_point raises it, so that
# boundary imports nothing from this module
from .boundary import Cylinder, DomainError, PartialWord, sample_point
from .graph import CompositionError, Graph, Path
from .words import ReducedWord


class _Zero:
    def __repr__(self):
        return "0"


ZERO = _Zero()


class SgpElement:
    __slots__ = ("mu", "nu")

    def __init__(self, mu: Path, nu: Path):
        if mu.source_vertex != nu.source_vertex:
            raise CompositionError(
                f"pair needs a common source, got {mu.source_vertex} and {nu.source_vertex}")
        self.mu = mu
        self.nu = nu

    @property
    def is_idempotent(self):
        return self.mu == self.nu

    def __eq__(self, other):
        if not isinstance(other, SgpElement):
            return NotImplemented
        return self.mu == other.mu and self.nu == other.nu

    def __hash__(self):
        return hash((self.mu, self.nu))

    def __repr__(self):
        return f"SgpElement({self.mu!r}, {self.nu!r})"


def _pair(mu: Path, nu: Path) -> SgpElement:
    """The element (mu, nu), built without the common-source check.

    Precondition: mu and nu already have a common source, as a product of
    two elements has by construction.
    """
    element = object.__new__(SgpElement)
    element.mu = mu
    element.nu = nu
    return element


def sgp_mul(g: Graph, x, y):
    """(A, B)(C, D): when B = C.rest the product is (A, D.rest), when
    C = B.rest it is (A.rest, D), else 0.  The new path is built in one
    step from the instance tuples; rest ends where B (or C) ends, which is
    where A (or D) ends, so the pair needs no check."""
    if x is ZERO or y is ZERO:
        return ZERO
    A, B, C, D = x.mu, x.nu, y.mu, y.nu
    if B.startswith(C):
        return _pair(A, Path(D.range_vertex, B.source_vertex,
                             D.instances + B.instances[len(C.instances):]))
    if C.startswith(B):
        return _pair(Path(A.range_vertex, C.source_vertex,
                          A.instances + C.instances[len(B.instances):]), D)
    return ZERO


def sigma(x) -> ReducedWord:
    """The free-group shadow mu.nu^-1 of a nonzero pair."""
    if x is ZERO:
        raise DomainError("sigma is undefined at 0")
    return ReducedWord.from_pair(x.mu, x.nu)


def _pairs(paths) -> list[SgpElement]:
    """Every nonzero pair (mu, nu) of these paths, in the order of their
    full product: the pairs with a common source, built by _pair."""
    return [_pair(mu, nu) for mu, nu in product(paths, repeat=2)
            if mu.source_vertex == nu.source_vertex]


def _character_image(s, rho: Path) -> Path:
    """The stem of the character rho moved by s = (mu, nu): nu.x goes to
    mu.x.  Precondition: rho starts with nu."""
    mu = s.mu
    return Path(mu.range_vertex, rho.source_vertex,
                mu.instances + rho.instances[len(s.nu):])


def verify_partial_hom(g: Graph, depth: int = 2) -> dict:
    """Exhaustively check sigma over a truncation.

    sigma must turn nonzero products into word products and send only
    idempotents to the empty word.  The law binds only nonzero products,
    and s.t is nonzero exactly when s.nu and t.mu are comparable, so only
    those pairs are visited, in the order of the full product.

    Many pairs share a product, so each product's sigma is evaluated once
    per run of pairs with one s.mu, and the memo is cleared when s.mu
    changes: it never holds more than one run's distinct products.  The
    key is the product's two instance tuples and no vertex, since
    ReducedWord.from_pair reads only instances: every vertex pair (v, v)
    maps to the empty word.
    """
    els = _pairs(g.paths_up_to(depth))
    table = [(s, sigma(s)) for s in els]
    by_mu = {}
    for j, t in enumerate(els):
        by_mu.setdefault(t.mu, []).append(j)
    # many pairs share a nu; as (nu, nu) is an element, the nus are the mus.
    # Each nu keeps its partner rows (t, sigma(t)) in the full-product order.
    partners = {nu: [table[j] for j in sorted(
                    j for mu, js in by_mu.items()
                    if mu.startswith(nu) or nu.startswith(mu) for j in js)]
                for nu in by_mu}
    failures = []
    pairs = 0
    memo = {}
    mu = None
    for s, ws in table:
        if s.mu is not mu:
            mu = s.mu
            memo.clear()
        rows = partners[s.nu]
        pairs += len(rows)
        for t, wt in rows:
            st = sgp_mul(g, s, t)
            key = st.mu.instances, st.nu.instances
            w = memo.get(key)
            if w is None:
                w = memo[key] = sigma(st)
            if ws * wt != w:
                failures.append((s, t))
    pure_failures = [s for s, ws in table
                     if ws.is_identity and not s.is_idempotent]
    return {
        "elements": len(els),
        "pairs_checked": pairs,
        "failures": failures,
        "idempotent_pure_failures": pure_failures,
    }


def check_boundary_invariance(g: Graph, depth: int = 2) -> dict:
    """Push every maximal character through every pair and compare the
    image with the boundary action of the pair's prefix map.

    A character is the prefix chain of its stem; the maximal ones have
    stems at full depth or at a dead-end source.  For a stem rho in the
    domain of s = (mu, nu), the point sample_point(Z(rho)) goes under
    PartialWord(g, mu, nu) to a point that must start with the image
    stem, and must be that finite path itself when the image's source
    receives no edge; a DomainError there is a violation too.  sigma(s)
    is not evaluated here: that its partial word acts on Z(nu) as the
    prefix map does is the pair_map_laws property of the test suite.

    Images that stay below depth at a source that still receives edges say
    nothing about maximality inside a truncation (the cut hides their
    continuations), so they are counted as skips; they are still compared.
    Overflowing images are counted as escapes and not compared.

    An image overflows when len(rho) > depth - len(mu) + len(nu).  The
    stems under each nu keep the order of maximal_stems, which is
    paths_up_to's sort_key order, so their lengths never decrease: the
    escapes of a pair are the tail of its list, counted by one bisection,
    and only the rows before it are walked.
    """
    paths = g.paths_up_to(depth)
    stems = [(rho, sample_point(g, Cylinder(rho, frozenset())))
             for rho in g.maximal_stems(depth)]
    # many pairs share a nu, so find the stems under each path once
    under = {}
    for nu in paths:
        rows = [(rho, x) for rho, x in stems if rho.startswith(nu)]
        under[nu] = rows, [len(rho) for rho, _ in rows]
    checked = skips = escapes = 0
    violations = []
    for s in _pairs(paths):
        rows, lengths = under[s.nu]
        cut = bisect_right(lengths, depth - len(s.mu) + len(s.nu))
        checked += len(rows)
        escapes += len(rows) - cut
        if not cut:
            continue
        pw = PartialWord(g, s.mu, s.nu)
        for rho, x in rows[:cut]:
            img = _character_image(s, rho)
            dead_end = not g.receivers(img.source_vertex)
            if len(img) < depth and not dead_end:
                skips += 1
            try:
                y = pw.act_point(x)
                ok = y.startswith(img) and (
                    not dead_end or (y.is_finite and len(y) == len(img)))
            except DomainError:
                ok = False
            if not ok:
                violations.append((s, rho))
    return {
        "checked": checked,
        "skips": skips,
        "escapes": escapes,
        "violations": violations,
    }
