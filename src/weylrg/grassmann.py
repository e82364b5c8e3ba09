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
from itertools import combinations, permutations, product

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
    return _expansion_sum(mono, g, tuple(range(len(mono))), {})


def _expansion_sum(mono, g, pos, memo):
    """Sum over the pairings of the fields of mono at positions pos: the first
    pairs with each later one, sign (-1)^(j-1).  memo keeps each subtotal by its
    tuple of positions, which determines it, so each is computed once."""
    if len(pos) == 0:
        return 1
    if len(pos) % 2:
        return 0
    total = memo.get(pos)
    if total is None:
        total, x0 = 0, mono[pos[0]]
        for j in range(1, len(pos)):
            c = _pair(x0, mono[pos[j]], g)
            if c != 0:
                rest = pos[1:j] + pos[j + 1:]
                total += (-1) ** (j - 1) * c * _expansion_sum(mono, g, rest, memo)
        memo[pos] = total
    return total


def _move_front_sign(order, items):
    cur = list(order)
    sign = 1
    for item in items:
        j = cur.index(item)
        sign *= (-1) ** j
        cur.pop(j)
    return sign, cur


def interleave_sign(mono):
    """Sign reordering mono into (-,+,-,+,...) keeping each kind's relative
    order; returns (sign, minus_indices, plus_indices)."""
    minus = [f for f in mono if f[1] == -1]
    plus = [f for f in mono if f[1] == +1]
    sign, _ = _move_front_sign(mono, [f for pair in zip(minus, plus) for f in pair])
    return sign, [f[0] for f in minus], [f[0] for f in plus]


def _det(rows):
    """Exact determinant by Gaussian elimination over Fractions; rows as nested
    lists of ints/Fractions.

    A zero pivot is swapped for a nonzero one below it.  The columns are
    eliminated as rows, so the first pivot is taken from the first row.  The
    type is the one expansion along that row gives: a 1x1 matrix returns its
    entry, an all-int matrix an int, a larger matrix with a zero first row
    the int 0, and any other a Fraction.
    """
    n = len(rows)
    if n == 1:
        return rows[0][0]
    all_int = all(isinstance(x, int) for r in rows for x in r)
    m = [[Fraction(x) for x in col] for col in zip(*rows)]
    det = 1
    for k in range(n):
        p = next((i for i in range(k, n) if m[i][k]), None)
        if p is None:
            det *= 0
            break
        if p != k:
            m[k], m[p] = m[p], m[k]
            det = -det
        pivot = m[k][k]
        det *= pivot
        for row in m[k + 1:]:
            f = row[k] / pivot
            if f:
                for j in range(k + 1, n):
                    row[j] -= f * m[k][j]
    return int(det) if all_int else det


def wick_expectation(mono, g, method: str = "auto"):
    """Gaussian expectation of one monomial; unbalanced monomials give 0.

    method "det" uses the signed-determinant identity on the interleaved
    order, exact when every covariance entry it reads is an int or Fraction
    and numpy's float determinant otherwise; "expansion" the pairing
    recursion; "auto" computes the determinant and, for <= 8 fields, checks
    it against the expansion (exactly, or within 1e-9 max(1, |det|) for the
    float determinant), raising WickMismatchError on a disagreement.
    """
    if method not in ("auto", "det", "expansion"):
        raise ValueError("method must be auto, det or expansion")
    _check_clusters((mono,), even=False, distinct=False)
    n_minus = sum(1 for f in mono if f[1] == -1)
    n_plus = len(mono) - n_minus
    if n_minus != n_plus:
        return 0
    if method == "expansion":
        return wick_expansion(mono, g)
    sign, mi, pi = interleave_sign(mono)
    sub = [[g[a][b] for b in pi] for a in mi]
    exact = all(isinstance(x, (int, Fraction)) for row in sub for x in row)
    d = sign * (_det(sub) if exact else np.linalg.det(np.array(sub, dtype=float)))
    if method == "det" or len(mono) > 8:
        return d
    e = wick_expansion(mono, g)
    if not (e == d if exact else abs(e - d) <= 1e-9 * max(1.0, abs(d))):
        raise WickMismatchError(f"determinant {d!r} and expansion {e!r} disagree on {mono}")
    return d


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


def _check_clusters(clusters, even=True, distinct=True):
    """ValueError on no clusters or a field kind other than -1/+1, and (as
    asked) on an odd cluster or a field that appears twice."""
    if not clusters:
        raise ValueError("need at least one cluster")
    fields = [f for cl in clusters for f in cl]
    for i, f in enumerate(fields):
        if f[1] not in (-1, 1):
            raise ValueError(f"field {f} has kind {f[1]!r}, not -1 (psi^-) or +1 (psi^+)")
        if distinct and f in fields[:i]:
            raise ValueError(f"field {f} appears more than once")
    if even and any(len(c) % 2 for c in clusters):
        raise ValueError("clusters must hold an even number of fields")


def truncated_expectation_oracle(clusters, g):
    """Joint cumulant of the cluster monomials by partition Moebius inversion.

    Requires even clusters (odd monomials anticommute across blocks and the
    partition formula would need extra signs; every cluster that arises from
    the expansion is even).  s = 1 reduces to the plain expectation.  A
    repeated field is allowed: its monomials are nilpotent.
    """
    s = len(clusters)
    if s > MAX_CLUSTERS_ORACLE:
        raise SizeLimitError(f"oracle capped at s <= {MAX_CLUSTERS_ORACLE}")
    if sum(len(c) for c in clusters) > MAX_FIELDS_ORACLE:
        raise SizeLimitError(f"oracle capped at {MAX_FIELDS_ORACLE} fields")
    _check_clusters(clusters, distinct=False)
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

    def contracts_to_tree(self, s: int) -> bool:
        return len(self.lines) == s - 1 and _tree_paths([l[::2] for l in self.lines], s) is not None


def _tree_paths(edges, s):
    """{(i, u): indices of the edges on the path i -> u} over every ordered
    pair of the s clusters (() for i == u), or None when the edges (a, b)
    do not connect all s clusters."""
    paths = {}
    for i in range(s):
        path, stack = {i: ()}, [i]
        while stack:
            v = stack.pop()
            for e, (a, b) in enumerate(edges):
                if v in (a, b) and (u := a + b - v) not in path:
                    path[u] = path[v] + (e,)
                    stack.append(u)
        if any(u not in path for u in range(s)):
            return None
        paths.update(((i, u), p) for u, p in path.items())
    return paths


@functools.cache
def _spanning_trees(s):
    """The cluster trees on s clusters: (s - 1)-sets of edges (a, b), a < b, connecting all."""
    return tuple(sub for sub in combinations(combinations(range(s), 2), s - 1)
                 if _tree_paths(sub, s) is not None)


def _pairings(tree, clusters):
    """Line sets of the cluster tree: per edge (a, b) one line (ci, psi^-,
    cj, psi^+) between a and b, every chosen field distinct; a's minus
    fields with b's plus fields come first, then b's minus with a's plus."""
    def lines(a, b):
        return [(a, fm, b, fp) for fm in clusters[a] if fm[1] == -1
                for fp in clusters[b] if fp[1] == +1]

    return (combo for combo in product(*[lines(a, b) + lines(b, a) for a, b in tree])
            if len({f for l in combo for f in l[1::2]}) == 2 * len(combo))


def enumerate_anchored_trees(clusters):
    """All anchored trees: per tree edge an oriented field pair with every
    chosen field distinct; contraction to a cluster tree holds by construction.
    ValueError on no clusters, a field kind other than -1/+1 or a repeated field."""
    s = len(clusters)
    if s > MAX_CLUSTERS_ORACLE:
        raise SizeLimitError(f"anchored trees capped at s <= {MAX_CLUSTERS_ORACLE}")
    _check_clusters(clusters, even=False)
    return [AnchoredTree(lines=lines) for tree in _spanning_trees(s)
            for lines in _pairings(tree, clusters)]


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
    the tree path i -> i' at each quadrature point and of 1 (every w < 1),
    which makes the diagonal, with its empty path, 1."""
    wt, w = _sector_grid(len(tree))
    t = np.empty((len(wt), s, s))
    for (i, u), path in _tree_paths(tree, s).items():
        t[:, i, u] = w[:, list(path)].min(axis=1, initial=1.0)
    return wt, _frozen(t)


def bbf_evaluate(clusters, g):
    """Anchored-tree interpolated-determinant evaluation of the cumulant.

    Equals truncated_expectation_oracle to quadrature accuracy (1e-10 on
    normalized inputs); s <= 3, total fields <= 10, even clusters of distinct
    fields of kind -1/+1 (ValueError otherwise).  All pairings of one cluster
    tree share its quadrature points and minor size, so each tree takes one
    stacked determinant.
    """
    s = len(clusters)
    if s > MAX_CLUSTERS_BBF:
        raise SizeLimitError(f"bbf_evaluate capped at s <= {MAX_CLUSTERS_BBF}")
    if sum(len(c) for c in clusters) > MAX_FIELDS_BBF:
        raise SizeLimitError(f"bbf_evaluate capped at {MAX_FIELDS_BBF} fields")
    _check_clusters(clusters)
    garr = np.asarray(g, dtype=float)
    fields = [f for cl in clusters for f in cl]
    if 2 * sum(f[1] == -1 for f in fields) != len(fields):
        return 0.0
    cl_of = {f: ci for ci, cl in enumerate(clusters) for f in cl}
    total = 0.0
    for tree in _spanning_trees(s):
        terms = []
        for lines in _pairings(tree, clusters):
            front = [f for _, fm, _, fp in lines for f in (fm, fp)]
            sgn0, rest = _move_front_sign(fields, front)
            sgn1, mi, pi = interleave_sign(tuple(rest))
            terms.append((sgn0 * sgn1 * math.prod(garr[fm[0], fp[0]] for _, fm, _, fp in lines),
                          mi, pi, [cl_of[(i, -1)] for i in mi], [cl_of[(j, +1)] for j in pi]))
        if not terms:
            continue
        coef, minus, plus, rows, cols = zip(*terms)
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
