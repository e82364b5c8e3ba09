"""Scale-labeled expansion trees: enumeration, power counting, bound products.

Trees are stored reduced: only branch vertices (>= 2 children) and endpoints
carry explicit scales; chains of trivial vertices between them are implicit
and enter bound products through telescoped scale jumps (every trivial vertex
carries the external-field set of the vertex above it, so the per-vertex
factors along a chain collapse into one factor with the total jump).

Power counting (per external-leg count l, even, >= 2):

  regime 1:  D(l) = 7/2 - 5l/4,   z(2) = 3/2
  regime 2:  D(l) = 4  - 3l/2,    z(2) = 2

Bound products use the per-vertex gain weight g(l) = -D(l) + z(l), which is
>= 1/2 for every l in both regimes; tree_bound reports the root dimensional
factor h*D(l) and the telescoped gain exponent separately, both as exact
Fractions.  Regime-2 velocity bookkeeping is evaluated summand-by-summand on
the tree; the compensation identity makes it l/2 - 1 for every admissible
assignment, and the audit asserts exactly that.
"""

from __future__ import annotations

import gc
import math
from collections import deque
from dataclasses import dataclass, fields
from fractions import Fraction
from functools import cache
from itertools import product, repeat

MAX_ENDPOINTS = 6
MIN_ROOT_SCALE = -8
#: Most trees one enumerate_trees call builds: about 185 bytes and 0.6 us per
#: tree (1,260,143 trees at n = 6, h = -5: 0.73-0.82 s and 270 MB peak RSS,
#: 2-core Xeon).
MAX_TREES = 1_000_000
INTERACTION, NU = "interaction", "nu_counterterm"
_FIELDS = {INTERACTION: 4, NU: 2}


class SizeLimitError(ValueError):
    """Enumeration request beyond the desk-scale caps."""


def scaling_dimension(regime: int, l: int) -> Fraction:
    """Exact D(l); l must be even and >= 2."""
    if l % 2 or l < 2:
        raise ValueError("l must be even and >= 2")
    if regime == 1:
        return Fraction(7, 2) - Fraction(5, 4) * l
    if regime == 2:
        return Fraction(4) - Fraction(3, 2) * l
    raise ValueError("regime must be 1 or 2")


def z_gain(regime: int, l: int) -> Fraction:
    """Renormalization gain z(l): applied on two-leg kernels only."""
    if l == 2:
        return Fraction(3, 2) if regime == 1 else Fraction(2)
    return Fraction(0)


def gain_weight(regime: int, l: int) -> Fraction:
    """Per-unit-scale decay exponent -D(l) + z(l) of renormalized vertices."""
    return -scaling_dimension(regime, l) + z_gain(regime, l)


# --- structure ---------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class Node:
    """Reduced tree node: an endpoint (no children) or a branch (>= 2)."""

    scale: int
    children: tuple = ()
    kind: str | None = None  # endpoints only

    @property
    def is_endpoint(self) -> bool:
        return not self.children

    def endpoints(self):
        if self.is_endpoint:
            yield self
        else:
            for c in self.children:
                yield from c.endpoints()

    def branches(self):
        if not self.is_endpoint:
            yield self
            for c in self.children:
                yield from c.branches()


@dataclass(frozen=True, slots=True)
class GNTree:
    """Labeled expansion tree with root scale h; root's child chain starts at h+1."""

    root_scale: int
    top: Node

    @property
    def n(self) -> int:
        return sum(1 for _ in self.top.endpoints())

    def endpoints(self):
        return list(self.top.endpoints())

    def branches(self):
        return list(self.top.branches())


def _shapes(n: int):
    """Plane shapes with n ordered leaves, no unary nodes (Schroeder trees).

    A shape is () for a leaf or a tuple of >= 2 child shapes.
    """
    if n == 1:
        return [()]
    out = []
    for s in range(2, n + 1):
        for comp in _compositions(n, s):
            for kids in product(*[_shapes(m) for m in comp]):
                out.append(tuple(kids))
    return out


def _compositions(n, s):
    if s == 1:
        yield (n,)
        return
    for first in range(1, n - s + 2):
        for rest in _compositions(n - first, s - 1):
            yield (first,) + rest


def count_shapes(n: int) -> int:
    return len(_shapes(n))


def _build(cls, count, *columns):
    """count fresh instances of the frozen slotted dataclass cls; field i of
    the k-th is the k-th item of columns[i].

    They equal cls(...) in repr, ==, hash and frozenness.  The slots are filled
    a column at a time through the class's own member descriptors; the frozen
    __init__ would call object.__setattr__ once per field and instance.
    """
    objs = list(map(object.__new__, repeat(cls, count)))
    for f, column in zip(fields(cls), columns, strict=True):
        deque(map(cls.__dict__[f.name].__set__, objs, column), maxlen=0)
    return objs


def _label(shape, min_scale: int, kind_choices):
    """Labeled Nodes for `shape` with scale > min_scale for the top vertex."""
    if shape == ():  # endpoint: scale in [min_scale+1, 1]
        return [Node(s, (), kind) for s in range(min_scale + 1, 2) for kind in kind_choices]
    # branch: scale in [min_scale+1, 0]; endpoints above force <= 0
    out = []
    for s in range(min_scale + 1, 1):
        kids = list(product(*[_label(c, s, kind_choices) for c in shape]))
        out += _build(Node, len(kids), repeat(s), kids, repeat(None))
    return out


@cache
def _label_count(shape, min_scale: int, n_kinds: int) -> int:
    """len(_label(shape, min_scale, kinds)) for n_kinds kinds, without building them."""
    if shape == ():
        return (1 - min_scale) * n_kinds
    return sum(math.prod(_label_count(c, s, n_kinds) for c in shape)
               for s in range(min_scale + 1, 1))


def enumerate_trees(n: int, h: int, kinds=(INTERACTION,),
                    require_interaction: bool = False):
    """All labeled trees with n endpoints, root at h, scales in (h, 1].

    kinds lists the endpoint kinds to enumerate; with require_interaction the
    subset with at least one interaction endpoint is returned (the beta-kernel
    family; pure-nu chains vanish identically and are excluded there).

    The trees are acyclic, so the cyclic garbage collector is paused for the
    build; at n = 5 it would walk every node.
    The caps on n and h do not bound the size, so the trees are counted first
    and more than MAX_TREES raise SizeLimitError.
    """
    if not 1 <= n <= MAX_ENDPOINTS:
        raise SizeLimitError(f"n = {n} outside 1..{MAX_ENDPOINTS}")
    if not MIN_ROOT_SCALE <= h <= -1:
        raise SizeLimitError(f"h = {h} outside {MIN_ROOT_SCALE}..-1")
    low = h + 1 if n == 1 else h  # v0, at h+1, is never an endpoint
    kinds, shapes = tuple(kinds), _shapes(n)
    count = sum(_label_count(shape, low, len(kinds)) for shape in shapes)
    if count > MAX_TREES:
        raise SizeLimitError(f"n = {n}, h = {h} makes {count} trees (> {MAX_TREES})")
    gc_enabled = gc.isenabled()
    gc.disable()
    try:
        out = []
        for shape in shapes:  # one shape's nodes at a time keeps the peak low
            nodes = _label(shape, low, kinds)
            out += _build(GNTree, len(nodes), repeat(h), nodes)
        if require_interaction:
            out = [t for t in out if any(e.kind != NU for e in t.top.endpoints())]
    finally:
        if gc_enabled:
            gc.enable()
    return out


# --- assignments --------------------------------------------------------------

def enumerate_assignments(tree: GNTree):
    """External-field sizes |P_v| for every vertex, sizes-only with containment.

    Endpoints carry |P| = |I_v| fixed by kind; a branch with children sizes
    (p_1..p_s) takes any even |P| with 2 <= |P| <= sum(p_i) - 2(s-1), the
    subtracted fields being contracted in pairs by the spanning lines.
    Returns a list of assignments shaped like the tree: (|P_v|, child
    assignments), so an endpoint is (|P_v|, ()) and the root's size comes first.
    """
    return _assignments(tree.top)


def _assignments(node: Node):
    if node.is_endpoint:
        return [(_FIELDS[node.kind], ())]
    out = []
    for kids in product(*map(_assignments, node.children)):
        top = sum(k[0] for k in kids) - 2 * (len(kids) - 1)
        out.extend((pv, kids) for pv in range(2, top + 1, 2))
    return out


def _vertices(assignment):
    """Every (|P_v|, child assignments) of an assignment, in pre-order."""
    yield assignment
    for kid in assignment[1]:
        yield from _vertices(kid)


@dataclass(frozen=True)
class TreeBound:
    """log2 decomposition of the dimensional product of one labeled tree."""

    dimension: Fraction      # h * D(l), the root power-counting factor
    gain: Fraction           # telescoped per-vertex renormalization decay (<= -1/2 per chain scale)
    velocity_exponent: Fraction  # regime 2: net power of v_{3,0}


def tree_bound(tree: GNTree, assignment, regime: int) -> TreeBound:
    """Exact exponents of the Gallavotti-Nicolo bound product for one tree.

    gain telescopes -(h_v - h_v') (5|P_v|/4 - 7/2 + z(P_v)) (regime-1 weights;
    regime 2 analogously with 3|P|/2 - 4 + z) over all non-endpoint vertices,
    chains included: every reduced edge from a parent at s_p to a child at s_c
    contributes -(s_c - s_p) g(|P_c|), endpoints counting their chain up to
    scale h_e - 1.  The velocity exponent evaluates the regime-2 bookkeeping
    sum_ep (|I_v|/2 - 1) - sum_v [sum_i |P_vi|/2 - |P_v|/2 - (s_v - 1)], which
    collapses to l/2 - 1 for every assignment.
    """
    dim = tree.root_scale * scaling_dimension(regime, assignment[0])

    def gain(parent_scale: int, node: Node, a) -> Fraction:
        top = node.scale - 1 if node.is_endpoint else node.scale
        g = -(top - parent_scale) * gain_weight(regime, a[0])
        for c, k in zip(node.children, a[1]):
            g += gain(node.scale, c, k)
        return g

    vel = Fraction(0)
    if regime == 2:
        for size, kids in _vertices(assignment):
            if kids:
                vel -= Fraction(sum(k[0] for k in kids), 2) - Fraction(size, 2) - (len(kids) - 1)
            else:
                vel += Fraction(size, 2) - 1
    return TreeBound(dimension=dim, gain=gain(tree.root_scale, tree.top, assignment),
                     velocity_exponent=vel)


# --- structural identities ----------------------------------------------------

def _materialize(tree: GNTree, assignment):
    """Expand trivial chains: rows dict(h, hp, P, child_sum, s_v, n_v, I_v)
    for every non-endpoint vertex, plus endpoint rows dict(h, hp, I_v).

    One bottom-up walk: each subtree returns its endpoint and field counts
    (n_v, |I_v|), which its branch row and the chain above it share.
    """
    vertices, endpoint_rows = [], []

    def walk(parent_scale, node, a):
        size, kids = a
        if node.is_endpoint:  # |P_e| = |I_e|
            n_v, i_v = 1, size
            endpoint_rows.append(dict(h=node.scale, hp=node.scale - 1, I_v=size))
        else:
            counts = [walk(node.scale, c, k) for c, k in zip(node.children, kids)]
            n_v, i_v = sum(m for m, _ in counts), sum(f for _, f in counts)
            vertices.append(dict(h=node.scale, hp=node.scale - 1, P=size,
                                 child_sum=sum(k[0] for k in kids), s_v=len(kids),
                                 n_v=n_v, I_v=i_v))
        vertices.extend(dict(h=s, hp=s - 1, P=size, child_sum=size, s_v=1, n_v=n_v, I_v=i_v)
                        for s in range(parent_scale + 1, node.scale))
        return n_v, i_v

    walk(tree.root_scale, tree.top, assignment)
    return vertices, endpoint_rows


def structural_identities_check(tree: GNTree, assignment) -> dict:
    """Verify the exact summation identities behind the bound rearrangements.

    Checks, in integer arithmetic: (a) total contracted fields telescope to
    |I_v0| - |P_v0|; (b) sum (s_v - 1) = n - 1; (c)/(d) the two weighted
    telescopings; (e)/(f) the endpoint-factor product identities.  Returns a
    report dict; 'ok' is False and 'failed' names the first violated identity.
    """
    v, eps = _materialize(tree, assignment)
    h, n, l = tree.root_scale, tree.n, assignment[0]
    i_v0 = sum(_FIELDS[e.kind] for e in tree.endpoints())
    identities = (  # (name, lhs, rhs)
        ("contracted-fields telescoping", sum(r["child_sum"] - r["P"] for r in v), i_v0 - l),
        ("branching count", sum(r["s_v"] - 1 for r in v), n - 1),
        ("weighted field telescoping",
         sum((r["h"] - h) * (r["child_sum"] - r["P"]) for r in v),
         sum((r["h"] - r["hp"]) * (r["I_v"] - r["P"]) for r in v)),
        ("weighted branching telescoping",
         sum((r["h"] - h) * (r["s_v"] - 1) for r in v),
         sum((r["h"] - r["hp"]) * (r["n_v"] - 1) for r in v)),
        ("endpoint scale product",
         h * n + sum((r["h"] - r["hp"]) * r["n_v"] for r in v), sum(e["hp"] for e in eps)),
        ("endpoint field product",
         h * i_v0 + sum((r["h"] - r["hp"]) * r["I_v"] for r in v),
         sum(e["hp"] * e["I_v"] for e in eps)),
    )
    failed = next((name for name, lhs, rhs in identities if lhs != rhs), None)
    return {"ok": failed is None, "failed": failed}


# --- scale sums ----------------------------------------------------------------

def _proto(shape) -> Node:
    """Node structure of `shape` with placeholder scales (0), interaction leaves."""
    if shape == ():
        return Node(scale=0, kind=INTERACTION)
    return Node(scale=0, children=tuple(map(_proto, shape)))


def _interaction_assignments(n: int):
    """(shape, assignment) for every n-leaf shape with interaction endpoints
    only, in _shapes order, and every sizes-only assignment of it."""
    for shape in _shapes(n):
        for assignment in _assignments(_proto(shape)):
            yield shape, assignment


def _sum_over_scales(assignment, regime, parent_scale, memo, top=False):
    """DP sum of 2^gain over all admissible scale labelings above parent_scale.

    assignment is (|P_v|, child assignments).  The top-level vertex of an
    n = 1 chain cannot be the scale-(h+1) vertex, so its scale starts one
    higher.
    """
    key = (assignment, parent_scale, top)
    if key in memo:
        return memo[key]
    size, kids = assignment
    g = float(gain_weight(regime, size))
    if not kids:  # endpoint at h_e, chain decay over (h_e - 1) - parent
        start = parent_scale + 2 if top else parent_scale + 1
        total = sum(2.0 ** (-g * ((he - 1) - parent_scale))
                    for he in range(start, 2))
    else:
        total = 0.0
        for s in range(parent_scale + 1, 1):
            term = 2.0 ** (-g * (s - parent_scale))
            for kid in kids:
                term *= _sum_over_scales(kid, regime, s, memo)
            total += term
    memo[key] = total
    return total


@dataclass
class ScaleSumAudit:
    n: int
    l: int
    regime: int
    h: int
    value: float
    term_count: int


def scale_sum_audit(n: int, l: int, regime: int, h: int = MIN_ROOT_SCALE) -> ScaleSumAudit:
    """Explicit sum of 2^gain over trees and assignments with |P_v0| = l.

    Runs over every labeled tree with root h (scale labelings summed by exact
    dynamic programming over the same admissible set) and every sizes-only
    assignment; per-tree gains telescope geometrically so the value saturates
    as h drops.

    The audited family is interaction endpoints only: every gain weight is
    then >= 3/2 per scale and the tails are sharply geometric.
    nu-counterterm endpoints carry scale-neutral weight factors of their own
    (the running 2^h nu_h values) and are audited through the flow instead.
    """
    if n > 4:
        raise SizeLimitError("scale sums capped at n <= 4")
    total, count, memo = 0.0, 0, {}
    for shape, assignment in _interaction_assignments(n):
        if assignment[0] == l:
            total += _sum_over_scales(assignment, regime, h, memo, top=shape == ())
            count += 1
    return ScaleSumAudit(n=n, l=l, regime=regime, h=h, value=total, term_count=count)


def serialize_tree(tree: GNTree) -> dict:
    """JSON-ready nested form: scales, branching and endpoint kinds."""

    def node(nd: Node):
        if nd.is_endpoint:
            return {"scale": nd.scale, "kind": nd.kind}
        return {"scale": nd.scale, "children": [node(c) for c in nd.children]}

    return {"root_scale": tree.root_scale, "top": node(tree.top)}


def combinatorial_inequality_value(n: int) -> float:
    """Explicit evaluation of the assignment sum of prod_v 2^{-|P_v|/8}."""
    total = 0.0
    for _, assignment in _interaction_assignments(n):
        total += math.prod((2.0 ** (-size / 8.0) for size, kids in _vertices(assignment) if kids),
                           start=1.0)
    return total
