import dataclasses
import gc
import hashlib
from fractions import Fraction
from functools import lru_cache

import pytest

from weylrg import trees as tr


def test_scaling_dimension_exact_rationals():
    assert tr.scaling_dimension(1, 2) == Fraction(1)
    assert tr.scaling_dimension(1, 4) == Fraction(-3, 2)
    assert tr.scaling_dimension(1, 6) == Fraction(-4)
    assert tr.scaling_dimension(2, 2) == Fraction(1)
    assert tr.scaling_dimension(2, 4) == Fraction(-2)
    for l in range(4, 13, 2):
        assert tr.scaling_dimension(1, l) < 0
        assert tr.scaling_dimension(2, l) < 0
    with pytest.raises(ValueError):
        tr.scaling_dimension(1, 3)


def test_z_gains():
    assert tr.z_gain(1, 2) == Fraction(3, 2)
    assert tr.z_gain(2, 2) == Fraction(2)
    assert tr.z_gain(1, 4) == 0


def test_gain_weight_at_least_half_regime1():
    for l in range(2, 13, 2):
        assert tr.gain_weight(1, l) >= Fraction(1, 2)


def test_shape_counts_bounded_by_4n():
    for n in range(1, 6):
        assert tr.count_shapes(n) <= 4 ** n
    assert [tr.count_shapes(n) for n in range(1, 6)] == [1, 1, 3, 11, 45]


def test_n1_labeled_count_is_admissible_endpoint_scales():
    for h in (-2, -4, -6):
        assert len(tr.enumerate_trees(1, h)) == -h


def test_branching_identity():
    for t in tr.enumerate_trees(3, -3):
        s_sum = sum(len(b.children) - 1 for b in t.branches())
        assert s_sum == t.n - 1


def test_enumeration_deterministic_and_scales_increase():
    a = tr.enumerate_trees(3, -4)
    b = tr.enumerate_trees(3, -4)
    assert [repr(t) for t in a] == [repr(t) for t in b]

    def check(node, parent_scale):
        assert node.scale > parent_scale
        for c in node.children:
            check(c, node.scale)

    for t in a:
        check(t.top, t.root_scale)
        for e in t.endpoints():
            assert e.scale <= 1


def test_size_limits():
    with pytest.raises(tr.SizeLimitError):
        tr.enumerate_trees(7, -3)
    with pytest.raises(tr.SizeLimitError):
        tr.enumerate_trees(2, -9)
    with pytest.raises(tr.SizeLimitError):
        tr.scale_sum_audit(5, 4, 1)


def test_chain_tree_bound_example():
    # single-endpoint chain, l = 4, regime 1: dimension h(7/2 - 5) = -(3/2)h
    for h in (-3, -5):
        t = tr.enumerate_trees(1, h)[0]
        a = tr.enumerate_assignments(t)[0]
        tb = tr.tree_bound(t, a, 1)
        assert tb.dimension == Fraction(-3, 2) * h
        # the chain gain telescopes the endpoint chain only
        assert tb.gain == -Fraction(3, 2) * ((t.top.scale - 1) - h)


def test_tree_bound_direct_product_oracle():
    """Telescoped gains equal the explicit per-scale product over the full
    (trivial-vertex materialized) tree."""
    for t in tr.enumerate_trees(3, -4):
        for a in tr.enumerate_assignments(t):
            tb = tr.tree_bound(t, a, 1)
            vertices, _ = tr._materialize(t, a)
            direct = -sum((row["h"] - row["hp"]) * tr.gain_weight(1, row["P"])
                          for row in vertices)
            assert tb.gain == direct


_KINDS = ((tr.INTERACTION,), (tr.INTERACTION, tr.NU))


def test_velocity_exponent_identity_all_trees():
    # regime-2 bookkeeping collapses to l/2 - 1 on every tree/assignment
    for kinds in _KINDS:
        for n in (1, 2, 3, 4):
            for t in tr.enumerate_trees(n, -3, kinds=kinds):
                for a in tr.enumerate_assignments(t):
                    tb = tr.tree_bound(t, a, 2)
                    l = a[0]
                    assert tb.velocity_exponent == Fraction(l, 2) - 1


def test_structural_identities_all_trees():
    for kinds in _KINDS:
        for n in (1, 2, 3):
            for t in tr.enumerate_trees(n, -3, kinds=kinds):
                for a in tr.enumerate_assignments(t):
                    rep = tr.structural_identities_check(t, a)
                    assert rep["ok"], rep


def test_structural_identities_hand_tree():
    # 3 endpoints on one nontrivial vertex: sum (s_v - 1) = 2
    node = tr.Node(scale=-2, children=tuple(
        tr.Node(scale=0, children=(), kind=tr.INTERACTION) for _ in range(3)))
    t = tr.GNTree(-3, node)
    a = tr.enumerate_assignments(t)[0]
    assert sum(len(b.children) - 1 for b in t.branches()) == 2
    assert tr.structural_identities_check(t, a)["ok"]


@pytest.mark.parametrize("rows,key,delta,name", [
    (0, "P", 2, "contracted-fields telescoping"),
    (0, "s_v", 1, "branching count"),
    (0, "I_v", 2, "weighted field telescoping"),
    (0, "n_v", 1, "weighted branching telescoping"),
    (1, "hp", 1, "endpoint scale product"),
    (1, "I_v", 2, "endpoint field product"),
])
def test_structural_identities_name_the_corrupted_one(monkeypatch, rows, key, delta, name):
    # one row of the expanded tree off by delta breaks the first identity that reads it
    t = tr.enumerate_trees(3, -3)[0]
    a = tr.enumerate_assignments(t)[0]
    materialize = tr._materialize

    def corrupted(tree, assignment):
        out = materialize(tree, assignment)
        out[rows][0][key] += delta
        return out

    monkeypatch.setattr(tr, "_materialize", corrupted)
    assert tr.structural_identities_check(t, a) == {"ok": False, "failed": name}


def test_scale_sums_pinned():
    # sha256 of every scale sum (value, term count) at n <= 4, l in {2, 4, 6},
    # both regimes and h = -1..-8, and of the assignment sums at n <= 5
    digest = hashlib.sha256()
    for n in (1, 2, 3, 4):
        for l in (2, 4, 6):
            for regime in (1, 2):
                for h in range(-1, -9, -1):
                    a = tr.scale_sum_audit(n, l, regime, h=h)
                    digest.update(f"{n} {l} {regime} {h} {a.value!r} {a.term_count}\n".encode())
    for n in (1, 2, 3, 4, 5):
        digest.update(f"{n} {tr.combinatorial_inequality_value(n)!r}\n".encode())
    assert digest.hexdigest() == \
        "3dc0307eccb352b97b09bc243d091a9e013dba6f8b172e4f7211579ab38c8bd1"


def test_scale_sum_dp_matches_bruteforce():
    def brute(n, l, regime, h):
        total = 0.0
        for t in tr.enumerate_trees(n, h):
            for a in tr.enumerate_assignments(t):
                if a[0] != l:
                    continue
                total += 2.0 ** float(tr.tree_bound(t, a, regime).gain)
        return total

    for n in (1, 2):
        for l in (2, 4):
            for regime in (1, 2):
                b = brute(n, l, regime, -5)
                d = tr.scale_sum_audit(n, l, regime, h=-5).value
                assert b == pytest.approx(d, abs=1e-12)


def test_scale_sum_growth_rate_stable():
    vals = {n: tr.scale_sum_audit(n, 4, 1, h=-8).value for n in (2, 3, 4)}
    c23 = vals[3] / vals[2]
    c34 = vals[4] / vals[3]
    assert max(c23, c34) / min(c23, c34) < 2.0


def test_scale_sum_n1_floor_tail():
    s6 = tr.scale_sum_audit(1, 4, 1, h=-6).value
    s8 = tr.scale_sum_audit(1, 4, 1, h=-8).value
    assert abs(s8 - s6) / s8 < 1e-2


def test_scale_sum_regime2_finite_with_velocity_bookkeeping():
    # velocity exponents are l/2 - 1 >= 0 for l >= 2 on every tree, so the
    # regime-2 sums carry no inverse-velocity divergence at small r; the sums
    # themselves stay finite and Cn-bounded
    vals = {n: tr.scale_sum_audit(n, 4, 2, h=-8).value for n in (1, 2, 3, 4)}
    assert all(v < 100.0 ** n for n, v in vals.items())


def test_combinatorial_inequality():
    vals = [tr.combinatorial_inequality_value(n) for n in (1, 2, 3, 4)]
    # prod_v sum_p 2^{-p/8} <= C^n: growth factor between consecutive n stable
    ratios = [vals[i + 1] / vals[i] for i in range(3)]
    assert max(ratios) / min(ratios) < 4.0
    assert all(v <= 16.0 ** n for n, v in zip((1, 2, 3, 4), vals))


def test_pure_nu_filter():
    both = tr.enumerate_trees(2, -3, kinds=(tr.INTERACTION, tr.NU))
    filtered = tr.enumerate_trees(2, -3, kinds=(tr.INTERACTION, tr.NU),
                                  require_interaction=True)
    assert len(filtered) < len(both)
    assert all(any(e.kind == tr.INTERACTION for e in t.endpoints())
               for t in filtered)


def _count_trees(n, h, n_kinds):
    """Labeled trees counted without building them, over leaf counts rather
    than shapes: `sub(m, low)` counts subtrees with m leaves whose top vertex
    sits above `low`, and `seq(m, s)` ordered runs of such subtrees (children
    of one vertex at s) with m leaves in all."""

    @lru_cache(maxsize=None)
    def sub(m, low):
        if m == 1:  # endpoint: scales low+1 .. 1, any kind
            return (1 - low) * n_kinds
        # branch at s in low+1 .. 0 with >= 2 children: runs minus lone children
        return sum(seq(m, s) - sub(m, s) for s in range(low + 1, 1))

    @lru_cache(maxsize=None)
    def seq(m, s):
        if m == 0:
            return 1
        return sum(sub(j, s) * seq(m - j, s) for j in range(1, m + 1))

    # a lone endpoint may not be v0 at h+1
    return sub(1, h + 1) if n == 1 else sub(n, h)


def test_count_oracle_seed_counts():
    # the benchmark's two enumerations, 630,881 trees in all
    assert _count_trees(4, -8, 1) == 173_502
    assert _count_trees(5, -6, 1) == 457_379


def test_tree_count_cap_raises_before_building(monkeypatch):
    # the caps on n and h admit (6, -8): 149,590,922 trees, counted, never built
    want = _count_trees(6, -8, 1)
    assert want > tr.MAX_TREES >= _count_trees(5, -6, 1)

    def no_build(*args):
        raise AssertionError("trees built past the size cap")

    monkeypatch.setattr(tr, "_label", no_build)
    with pytest.raises(tr.SizeLimitError, match=f"makes {want} trees"):
        tr.enumerate_trees(6, -8)
    with pytest.raises(tr.SizeLimitError, match=f"makes {_count_trees(5, -8, 2)} trees"):
        tr.enumerate_trees(5, -8, kinds=(tr.INTERACTION, tr.NU))


_COUNT_CASES = [pytest.param(n, h, kinds, req,
                             id=f"n{n}-h{h}-kinds{len(kinds)}{'-req' * req}")
                for n in range(1, 6) for h in (-1, -3, -5)
                for kinds in ((tr.INTERACTION,), (tr.INTERACTION, tr.NU))
                for req in (False, True)
                # 3,266,912 trees: 1.8 s and 636 MB peak RSS to build (2-core Xeon)
                if not (n == 5 and h == -5 and len(kinds) == 2)]


@pytest.mark.parametrize("n,h,kinds,req", _COUNT_CASES)
def test_enumeration_matches_count_oracle(n, h, kinds, req):
    want = _count_trees(n, h, len(kinds))
    if req and tr.NU in kinds:
        want -= _count_trees(n, h, 1)  # the pure-nu trees
    assert len(tr.enumerate_trees(n, h, kinds=kinds, require_interaction=req)) == want


def test_enumeration_order_and_repr_pinned():
    # sha256 of the reprs, one per line: the trees, their order and their repr
    digest = hashlib.sha256()
    for n, h, kinds, req in ((3, -3, (tr.INTERACTION, tr.NU), True),
                             (4, -2, (tr.INTERACTION, tr.NU), False),
                             (1, -4, (tr.NU, tr.INTERACTION), False)):
        for t in tr.enumerate_trees(n, h, kinds=kinds, require_interaction=req):
            digest.update(repr(t).encode() + b"\n")
    assert digest.hexdigest() == \
        "c2061ccc5492cea88eb4597988d87cab0d8abee9b975d072ba5aeaf63fc211e1"


def _rebuilt(node):
    """The same node through the public constructor, sharing nothing."""
    return tr.Node(node.scale, tuple(map(_rebuilt, node.children)), node.kind)


def test_enumerated_trees_are_the_public_constructors_objects():
    trees = tr.enumerate_trees(4, -2, kinds=(tr.INTERACTION, tr.NU))
    for t in trees:
        twin = tr.GNTree(t.root_scale, _rebuilt(t.top))
        assert t == twin and hash(t) == hash(twin) and repr(t) == repr(twin)
        for node, other in zip(t.branches(), twin.branches()):
            assert node == other and hash(node) == hash(other)
    # subtrees are shared between trees, and stay frozen
    seen = {}
    shared = next(k for t in trees for k in t.top.children
                  if seen.setdefault(id(k), t) is not t)
    for obj, field in ((shared, "scale"), (shared, "children"), (shared, "kind"),
                       (trees[0], "top"), (trees[0], "root_scale")):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, field, None)
    branch = next(n for t in trees for n in t.branches() if n.scale < 0)
    moved = dataclasses.replace(branch, scale=branch.scale + 1)
    assert (moved.scale, moved.children, moved.kind) == \
        (branch.scale + 1, branch.children, None)
    lowered = dataclasses.replace(trees[0], root_scale=-3)
    assert lowered == tr.GNTree(-3, trees[0].top) and trees[0].root_scale == -2


@pytest.mark.parametrize("enabled", [True, False])
def test_enumeration_restores_gc_state(enabled):
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        tr.enumerate_trees(3, -3)
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
