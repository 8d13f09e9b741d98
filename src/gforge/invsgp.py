"""Path-pair inverse semigroup of a graph, truncated to a finite depth.

Elements are pairs (mu, nu) of paths with a common source, together with a
zero.  (mu, nu) stands for the partial substitution sending nu.x to mu.x;
multiplication composes these, with 0 for empty overlap.  Idempotents are the
pairs (mu, mu); on them the order runs opposite to length, so the filters of
the truncated meet-semilattice are exactly the prefix chains of single paths.
"""
from __future__ import annotations

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


def sgp_mul(g: Graph, x, y):
    if x is ZERO or y is ZERO:
        return ZERO
    A, B, C, D = x.mu, x.nu, y.mu, y.nu
    if B.startswith(C):
        rest = g.strip_prefix(B, len(C))
        return SgpElement(A, g.concat(D, rest))
    if C.startswith(B):
        rest = g.strip_prefix(C, len(B))
        return SgpElement(g.concat(A, rest), D)
    return ZERO


def sigma(x) -> ReducedWord:
    """The free-group shadow mu.nu^-1 of a nonzero pair."""
    if x is ZERO:
        raise DomainError("sigma is undefined at 0")
    return ReducedWord.from_pair(x.mu, x.nu)


class TruncatedSemilattice:
    """All paths up to a depth, as Graph.paths_up_to enumerates them."""

    def __init__(self, g: Graph, depth: int):
        self.graph = g
        self.depth = depth
        self.paths = g.paths_up_to(depth)

    def elements(self) -> list[SgpElement]:
        """Every nonzero pair representable inside the truncation."""
        out = []
        for mu, nu in product(self.paths, repeat=2):
            if mu.source_vertex == nu.source_vertex:
                out.append(SgpElement(mu, nu))
        return out

    def act_on_character(self, s, rho: Path) -> Path:
        """Apply the substitution s to the character with stem rho; stem
        nu.x goes to mu.x.

        Raises DomainError off the domain idempotent and when the image stem
        would overflow the truncation depth.
        """
        if s is ZERO:
            raise DomainError("0 acts nowhere")
        if not rho.startswith(s.nu):
            raise DomainError(f"{rho!r} is not in the domain of {s!r}")
        length = len(s.mu) + len(rho) - len(s.nu)
        if length > self.depth:
            raise DomainError(
                f"image stem of length {length} escapes depth {self.depth}")
        return self.graph.concat(s.mu, self.graph.strip_prefix(rho, len(s.nu)))


def verify_partial_hom(g: Graph, depth: int = 2) -> dict:
    """Exhaustively check sigma over a truncation.

    sigma must turn nonzero products into word products and send only
    idempotents to the empty word.  The law binds only nonzero products,
    and s.t is nonzero exactly when s.nu and t.mu are comparable, so only
    those pairs are visited, in the order of the full product.
    """
    els = TruncatedSemilattice(g, depth).elements()
    table = [(s, sigma(s)) for s in els]
    by_mu = {}
    for j, t in enumerate(els):
        by_mu.setdefault(t.mu, []).append(j)
    # many pairs share a nu; as (nu, nu) is an element, the nus are the mus
    partners = {nu: sorted(j for mu, js in by_mu.items()
                           if mu.startswith(nu) or nu.startswith(mu) for j in js)
                for nu in by_mu}
    failures = []
    pairs = 0
    for s, ws in table:
        for j in partners[s.nu]:
            t, wt = table[j]
            pairs += 1
            if ws * wt != sigma(sgp_mul(g, s, t)):
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
    """
    ts = TruncatedSemilattice(g, depth)
    stems = [(rho, sample_point(g, Cylinder(rho, frozenset())))
             for rho in g.maximal_stems(depth)]
    # many pairs share a nu, so find the stems under each path once
    under = {nu: [(rho, x) for rho, x in stems if rho.startswith(nu)]
             for nu in ts.paths}
    checked = skips = escapes = 0
    violations = []
    for s in ts.elements():
        if not under[s.nu]:
            continue
        pw = PartialWord(g, s.mu, s.nu)
        for rho, x in under[s.nu]:
            checked += 1
            try:
                img = ts.act_on_character(s, rho)
            except DomainError:
                escapes += 1
                continue
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
