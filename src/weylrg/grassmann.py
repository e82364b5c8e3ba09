"""Exact finite Grassmann algebra: Wick and truncated expectations, anchored
trees, the interpolated determinant formula, and Gram-Hadamard audits.

Fields are (index, eps) pairs with eps = -1 for psi^- and +1 for psi^+; the
covariance is g[a, b] = <psi^-_a psi^+_b>.  A Cluster is an ordered tuple of
fields; monomials multiply in listed order.

The anchored-tree representation evaluated here: for clusters X_1..X_s,

  E^T(X_1;..;X_s) = sum_{T spanning tree} sum_{line choices} sign
                    * prod_l g(l) * int dw  E_{t(w)}[remaining fields]

with t_{ii'}(w) = min of the w_l along the tree path i -> i' (the forest
interpolation; min values are Gram-realizable as inner products of unit
vectors), the w-integral taken over [0,1]^{s-1} split into ordering sectors
(the integrand is polynomial within a sector; Gauss-Legendre of order 8 per
axis is then exact), and the sign produced by the explicit Grassmann
reordering that brings each tree line's pair to the front.  The remaining
interpolated expectation is a determinant with cross-cluster entries scaled
by t, evaluated through the interleaved-order identity

  E[psi^-_{i1} psi^+_{j1} ... psi^-_{im} psi^+_{jm}] = det[ g_{i_a, j_b} ].

That reordering sign is the whole sign, so the formula carries no global
factor to fix (it is +1).  Even cluster monomials commute, so their product
is the one monomial of all fields in cluster order.  Moving each line's pair
(psi^-_a, psi^+_b), in that order, to the front is a permutation of the
generators with an explicit parity; a pair in that order contracts to
g(a, b) by the definition of the covariance, with no further sign; and the
rest is brought to interleaved order with its own parity.  These are the
parities the Wick expansion of the same monomial assigns, and the cumulant
oracle, which knows nothing of trees, checks the result.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, groupby, permutations, product

import numpy as np

from .trees import SizeLimitError

MAX_CLUSTERS_ORACLE = 4
MAX_FIELDS_ORACLE = 12
MAX_CLUSTERS_BBF = 3
MAX_FIELDS_BBF = 10


class WickMismatchError(ArithmeticError):
    """The determinant and pairing-expansion values of a Wick expectation differ."""


def _pair(x, y, g):
    # g is nested lists or a 2-D array; g[a][b] indexes both
    (a, ea), (b, eb) = x, y
    if ea == -1 and eb == +1:
        return g[a][b]
    if ea == +1 and eb == -1:
        return -g[b][a]
    return 0


def wick_expansion(mono, g):
    """Gaussian expectation by exhaustive pairing recursion (exact for
    Fraction covariances); any interleaving of field kinds is allowed."""
    if len(mono) == 0:
        return 1
    if len(mono) % 2:
        return 0
    x0 = mono[0]
    total = 0
    for j in range(1, len(mono)):
        c = _pair(x0, mono[j], g)
        if c != 0:
            rest = mono[1:j] + mono[j + 1:]
            total += (-1) ** (j - 1) * c * wick_expansion(rest, g)
    return total


def interleave_sign(mono):
    """Sign reordering mono into (-,+,-,+,...) keeping each kind's relative
    order; returns (sign, minus_indices, plus_indices)."""
    minus = [f for f in mono if f[1] == -1]
    plus = [f for f in mono if f[1] == +1]
    target = []
    for a, b in zip(minus, plus):
        target.extend([a, b])
    cur = list(mono)
    sign = 1
    for pos, item in enumerate(target):
        j = cur.index(item)
        sign *= (-1) ** (j - pos)
        cur.insert(pos, cur.pop(j))
    return sign, [f[0] for f in minus], [f[0] for f in plus]


def _det(rows):
    """Exact determinant by expansion (Fractions/ints); rows as nested lists."""
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        total += (-1) ** j * rows[0][j] * _det(minor)
    return total


def wick_expectation(mono, g, method: str = "auto"):
    """Gaussian expectation of one monomial; unbalanced monomials give 0.

    method "det" uses the signed-determinant identity on the interleaved
    order; "expansion" the pairing recursion; "auto" computes the determinant
    and, for <= 8 fields, checks it against the expansion (exactly for
    Fraction covariances, within 1e-9 max(1, |det|) otherwise), raising
    WickMismatchError on a disagreement.
    """
    n_minus = sum(1 for f in mono if f[1] == -1)
    n_plus = len(mono) - n_minus
    if n_minus != n_plus:
        return 0
    exact = _is_exact(g)
    if method in ("det", "auto"):
        sign, mi, pi = interleave_sign(mono)
        if exact:
            sub = [[g[a][b] for b in pi] for a in mi]
            d = sign * _det(sub)
        else:
            d = sign * (np.linalg.det(np.asarray(g)[np.ix_(mi, pi)]) if mi else 1.0)
        if method == "det":
            return d
        if len(mono) <= 8:
            e = wick_expansion(mono, g)
            agree = e == d if exact else abs(e - d) <= 1e-9 * max(1.0, abs(d))
            if not agree:
                raise WickMismatchError(
                    f"determinant {d!r} and expansion {e!r} disagree on {mono}")
        return d
    if method == "expansion":
        return wick_expansion(mono, g)
    raise ValueError("method must be auto, det or expansion")


def _is_exact(g):
    return isinstance(g[0][0], (int, Fraction))


# --- cumulants ----------------------------------------------------------------

def _partitions(items):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for p in _partitions(rest):
        for i, block in enumerate(p):
            yield p[:i] + [[first] + block] + p[i + 1:]
        yield [[first]] + p


def truncated_expectation_oracle(clusters, g):
    """Joint cumulant of the cluster monomials by partition Moebius inversion.

    Requires even clusters (odd monomials anticommute across blocks and the
    partition formula would need extra signs; every cluster that arises from
    the expansion is even).  s = 1 reduces to the plain expectation.
    """
    s = len(clusters)
    if s > MAX_CLUSTERS_ORACLE:
        raise SizeLimitError(f"oracle capped at s <= {MAX_CLUSTERS_ORACLE}")
    if sum(len(c) for c in clusters) > MAX_FIELDS_ORACLE:
        raise SizeLimitError(f"oracle capped at {MAX_FIELDS_ORACLE} fields")
    for c in clusters:
        if len(c) % 2:
            raise ValueError("clusters must hold an even number of fields")
    total = 0
    for p in _partitions(list(range(s))):
        term = 1
        for block in p:
            mono = []
            for i in sorted(block):
                mono.extend(clusters[i])
            term *= wick_expectation(tuple(mono), g, method="det")
            if term == 0:
                break
        total += (-1) ** (len(p) - 1) * math.factorial(len(p) - 1) * term
    return total


# --- anchored trees -----------------------------------------------------------

@dataclass(frozen=True)
class AnchoredTree:
    """Spanning line set between clusters: lines (ci, field_i, cj, field_j)
    with field_i a minus field of cluster ci, field_j a plus field of cj."""

    lines: tuple

    def cluster_edges(self):
        return tuple((min(l[0], l[2]), max(l[0], l[2])) for l in self.lines)

    def contracts_to_tree(self, s: int) -> bool:
        seen = {0}
        edges = [(l[0], l[2]) for l in self.lines]
        grew = True
        while grew:
            grew = False
            for a, b in edges:
                if (a in seen) != (b in seen):
                    seen.update((a, b))
                    grew = True
        return len(self.lines) == s - 1 and len(seen) == s


def _spanning_trees(s):
    if s == 1:
        return [()]
    out = []
    for sub in combinations(combinations(range(s), 2), s - 1):
        seen = {0}
        adj = {i: [] for i in range(s)}
        for a, b in sub:
            adj[a].append(b)
            adj[b].append(a)
        stack = [0]
        while stack:
            v = stack.pop()
            for u in adj[v]:
                if u not in seen:
                    seen.add(u)
                    stack.append(u)
        if len(seen) == s:
            out.append(sub)
    return out


def enumerate_anchored_trees(clusters):
    """All anchored trees: per tree edge an oriented field pair with every
    chosen field distinct; contraction to a cluster tree holds by construction."""
    s = len(clusters)
    if s > MAX_CLUSTERS_ORACLE:
        raise SizeLimitError(f"anchored trees capped at s <= {MAX_CLUSTERS_ORACLE}")
    cl_of = {}
    for ci, cl in enumerate(clusters):
        for f in cl:
            cl_of[f] = ci
    minus = [f for cl in clusters for f in cl if f[1] == -1]
    plus = [f for cl in clusters for f in cl if f[1] == +1]
    out = []
    for tree in _spanning_trees(s):
        def choices(edge):
            a, b = edge
            ch = [(fm, fp) for fm in minus if cl_of[fm] == a
                  for fp in plus if cl_of[fp] == b]
            ch += [(fm, fp) for fm in minus if cl_of[fm] == b
                   for fp in plus if cl_of[fp] == a]
            return ch

        for combo in product(*[choices(e) for e in tree]):
            used = set()
            ok = True
            for fm, fp in combo:
                if fm in used or fp in used:
                    ok = False
                    break
                used.update((fm, fp))
            if ok:
                out.append(AnchoredTree(lines=tuple(
                    (cl_of[fm], fm, cl_of[fp], fp) for fm, fp in combo)))
    return out


# --- interpolated determinant formula ------------------------------------------

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(8)
_GL_NODES = (_GL_NODES + 1.0) / 2.0
_GL_WEIGHTS = _GL_WEIGHTS / 2.0


@functools.cache
def _sector_grid(ne):
    """(weights (n,), w (n, ne)): quadrature for int over [0,1]^ne of
    integrands polynomial within each ordering sector of w, with GL nodes
    mapped onto each sector's ordered simplex."""
    n = len(_GL_NODES)
    idx = np.array(list(product(range(n), repeat=ne)), dtype=int).reshape(n ** ne, ne)
    # ordered values o_0 <= ... <= o_{ne-1}: o_k = prod_{j >= k} v_j
    o = np.cumprod(_GL_NODES[idx][:, ::-1], axis=1)[:, ::-1]
    wt = np.prod(_GL_WEIGHTS[idx], axis=1) * np.prod(o[:, 1:], axis=1)
    sectors = list(permutations(range(ne)))
    w = np.empty((len(sectors), len(o), ne))
    for block, sigma in zip(w, sectors):
        block[:, list(sigma)] = o  # the edge of rank k takes o_k
    return _frozen(np.tile(wt, len(sectors))), _frozen(w.reshape(len(sectors) * len(o), ne))


def _frozen(a):
    """a made read-only: the cached grids are shared by every call."""
    a.setflags(write=False)
    return a


@functools.cache
def _tree_interpolation(tree, s):
    """(weights (n,), t (n, s, s)) for a cluster tree: t_ii' = min of w along
    the tree path i -> i' at each quadrature point, 1 on the diagonal."""
    wt, w = _sector_grid(len(tree))
    adj = {i: [] for i in range(s)}
    for e, (a, b) in enumerate(tree):
        adj[a].append((b, e))
        adj[b].append((a, e))
    t = np.ones((len(wt), s, s))
    for i in range(s):
        path = {i: []}
        stack = [i]
        while stack:
            v = stack.pop()
            for u, e in adj[v]:
                if u not in path:
                    path[u] = path[v] + [e]
                    t[:, i, u] = w[:, path[u]].min(axis=1)
                    stack.append(u)
    return wt, _frozen(t)


def _move_front_sign(order, items):
    cur = list(order)
    sign = 1
    for item in items:
        j = cur.index(item)
        sign *= (-1) ** j
        cur.pop(j)
    return sign, cur


def bbf_evaluate(clusters, g):
    """Anchored-tree interpolated-determinant evaluation of the cumulant.

    Equals truncated_expectation_oracle to quadrature accuracy (1e-10 on
    normalized inputs); s <= 3, total fields <= 10.  All pairings of one
    cluster tree share its quadrature points and minor size, so each tree
    takes one stacked determinant.
    """
    s = len(clusters)
    if s > MAX_CLUSTERS_BBF:
        raise SizeLimitError(f"bbf_evaluate capped at s <= {MAX_CLUSTERS_BBF}")
    if sum(len(c) for c in clusters) > MAX_FIELDS_BBF:
        raise SizeLimitError(f"bbf_evaluate capped at {MAX_FIELDS_BBF} fields")
    garr = np.asarray(g, dtype=float)
    fields = [f for cl in clusters for f in cl]
    if 2 * sum(f[1] == -1 for f in fields) != len(fields):
        return 0.0
    cl_of = {f: ci for ci, cl in enumerate(clusters) for f in cl}
    total = 0.0
    for tree, group in groupby(enumerate_anchored_trees(clusters),
                               key=AnchoredTree.cluster_edges):
        coef, minus, plus, rows, cols = [], [], [], [], []
        for at in group:
            front = [f for _, fm, _, fp in at.lines for f in (fm, fp)]
            sgn0, rest = _move_front_sign(fields, front)
            sgn1, mi, pi = interleave_sign(tuple(rest))
            coef.append(sgn0 * sgn1 * math.prod(garr[fm[0], fp[0]] for _, fm, _, fp in at.lines))
            minus.append(mi)
            plus.append(pi)
            rows.append([cl_of[(i, -1)] for i in mi])
            cols.append([cl_of[(j, +1)] for j in pi])
        # (P, m): every pairing of the tree leaves an m x m minor, m = nf/2 - (s - 1)
        minus, plus, rows, cols = (np.array(a, dtype=int).reshape(len(coef), -1)
                                   for a in (minus, plus, rows, cols))
        wt, t = _tree_interpolation(tree, s)
        # (n, P, m, m): the minor of each pairing at each quadrature point; det
        # meets log 0 on a minor singular in double precision, whose det 0 is right
        with np.errstate(divide="ignore"):
            det = np.linalg.det(t[:, rows[:, :, None], cols[:, None, :]]
                                * garr[minus[:, :, None], plus[:, None, :]])
        total += float(np.asarray(coef) @ (wt @ det))
    return total


# --- Gram-Hadamard -------------------------------------------------------------

@dataclass(frozen=True)
class GramAuditReport:
    det: float
    bound: float
    margin: float
    holds: bool


def gram_hadamard_audit(f_vectors, g_vectors) -> GramAuditReport:
    """Check |det <f_i, g_j>| <= prod_i |f_i| |g_i| and report the margin."""
    f = np.asarray(f_vectors, dtype=complex)
    gv = np.asarray(g_vectors, dtype=complex)
    if f.shape != gv.shape:
        raise ValueError("factor sets must have matching shapes")
    gram = f.conj() @ gv.T
    det = float(abs(np.linalg.det(gram)))
    bound = float(np.prod(np.linalg.norm(f, axis=1) * np.linalg.norm(gv, axis=1)))
    slack = 1e-12 * max(bound, 1.0)
    return GramAuditReport(det=det, bound=bound, margin=bound - det,
                           holds=det <= bound + slack)
