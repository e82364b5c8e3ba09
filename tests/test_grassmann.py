import os
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from weylrg import grassmann as gr
from weylrg import trees as tr


def rational_cov(rng, n):
    return [[Fraction(int(rng.integers(-4, 5)), int(rng.integers(1, 4)))
             for _ in range(n)] for _ in range(n)]


def rand_clusters(rng, sizes):
    idx = 0
    out = []
    for sz in sizes:
        nm = sz // 2
        eps = [-1] * nm + [1] * (sz - nm)
        rng.shuffle(eps)
        out.append(tuple((idx + i, int(e)) for i, e in enumerate(eps)))
        idx += sz
    return tuple(out)


def test_wick_single_contraction():
    g = [[Fraction(0)] * 2 for _ in range(2)]
    g[0][1] = Fraction(7, 3)
    assert gr.wick_expectation(((0, -1), (1, +1)), g) == Fraction(7, 3)


def test_wick_two_pair_block_det():
    # psi-_0 psi-_1 psi+_2 psi+_3 -> minus-block determinant with the
    # canonical sign, equal to the exhaustive expansion exactly
    rng = np.random.default_rng(0)
    g = rational_cov(rng, 4)
    mono = ((0, -1), (1, -1), (2, +1), (3, +1))
    v = gr.wick_expectation(mono, g, method="det")
    e = gr.wick_expansion(mono, g)
    assert v == e
    assert v == -(g[0][2] * g[1][3] - g[0][3] * g[1][2])


def test_wick_odd_and_unbalanced_vanish():
    g = [[Fraction(1)] * 3 for _ in range(3)]
    assert gr.wick_expectation(((0, -1), (1, +1), (2, -1)), g) == 0
    assert gr.wick_expectation(((0, -1), (1, -1)), g) == 0


_MISMATCH_SCRIPT = """
from fractions import Fraction
import numpy as np
from weylrg import grassmann as gr
gr.wick_expansion = lambda mono, g: gr.wick_expectation(mono, g, method="det") + 1
mono = ((0, -1), (1, +1), (2, -1), (3, +1))
for g in ([[Fraction(i - j, 1 + i + j) for j in range(4)] for i in range(4)],
          np.arange(16.0).reshape(4, 4) / 7.0):
    try:
        gr.wick_expectation(mono, g)
    except gr.WickMismatchError:
        continue
    raise SystemExit("no WickMismatchError for " + type(g).__name__)
"""


def test_wick_auto_raises_on_disagreement():
    """A forced det/expansion disagreement raises, for exact and float
    covariances, also under python -O (which strips asserts)."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(gr.__file__).parents[1])] + sys.path))
    for flags in ([], ["-O"]):
        done = subprocess.run([sys.executable, *flags, "-c", _MISMATCH_SCRIPT],
                              env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, (flags, done.stdout + done.stderr)


def test_det_equals_expansion_exhaustively():
    rng = np.random.default_rng(1)
    for trial in range(100):
        m = int(rng.integers(1, 5))
        eps = [-1] * m + [1] * m
        rng.shuffle(eps)
        mono = tuple((i, int(e)) for i, e in enumerate(eps))
        g = rational_cov(rng, 2 * m)
        assert gr.wick_expectation(mono, g, method="det") == gr.wick_expansion(mono, g)


def _laplace_det(rows):
    """Reference determinant: Laplace expansion along the first row (n! terms)."""
    if not rows:
        return 1
    if len(rows) == 1:
        return rows[0][0]
    total = 0
    for j, a in enumerate(rows[0]):
        if a != 0:
            total += (-1) ** j * a * _laplace_det([r[:j] + r[j + 1:] for r in rows[1:]])
    return total


def _det_cases():
    rng = np.random.default_rng(34)
    cases = [[], [[5]], [[Fraction(-2, 3)]], [[0]], [[Fraction(0)]],
             [[0, 1, 2], [3, 4, 5], [6, 7, 9]],                      # zero leading pivot
             [[Fraction(0), Fraction(1, 2)], [Fraction(3), Fraction(1)]],
             [[1, 2, 3], [2, 4, 6], [1, 0, 1]],                      # singular
             [[Fraction(1, 2), Fraction(1)], [Fraction(1), Fraction(2)]],
             [[0, 0], [1, 2]], [[Fraction(0), Fraction(0)], [Fraction(1), Fraction(2)]]]
    for n in range(2, 8):
        for _ in range(4):
            cases.append([[int(x) for x in rng.integers(-3, 4, n)] for _ in range(n)])
            cases.append(rational_cov(rng, n))
    return cases


@pytest.mark.parametrize("rows", _det_cases())
def test_det_by_elimination_matches_laplace(rows):
    got, want = gr._det(rows), _laplace_det(rows)
    assert got == want
    assert type(got) is type(want)  # an int for int input; 0 vs Fraction(0) kept
    if all(isinstance(x, int) for r in rows for x in r):
        assert type(got) is int


def _unmemoized_expansion(mono, g):
    """The pairing recursion as wick_expansion had it before its memo."""
    if len(mono) == 0:
        return 1
    if len(mono) % 2:
        return 0
    x0 = mono[0]
    total = 0
    for j in range(1, len(mono)):
        c = gr._pair(x0, mono[j], g)
        if c != 0:
            rest = mono[1:j] + mono[j + 1:]
            total += (-1) ** (j - 1) * c * _unmemoized_expansion(rest, g)
    return total


def _matchings(idx):
    """Every perfect matching of the positions idx, as lists of (i, j), i < j."""
    if not idx:
        yield []
        return
    for j in range(1, len(idx)):
        for rest in _matchings(idx[1:j] + idx[j + 1:]):
            yield [(idx[0], idx[j])] + rest


def _matching_sum(mono, g):
    """(value, sum of |terms|) of sum over perfect matchings of sign(permutation)
    times the product of contractions <psi-_a psi+_b> = g[a][b] (a psi+ before
    a psi- gives -g[b][a], two fields of one kind 0)."""
    def contraction(x, y):
        (a, ea), (b, eb) = x, y
        return g[a][b] if (ea, eb) == (-1, 1) else -g[b][a] if (ea, eb) == (1, -1) else 0

    total = size = 0
    for m in _matchings(tuple(range(len(mono)))) if len(mono) % 2 == 0 else ():
        order = [i for pair in m for i in pair]
        inversions = sum(x > y for k, x in enumerate(order) for y in order[k + 1:])
        term = (-1) ** inversions
        for i, j in m:
            term *= contraction(mono[i], mono[j])
        total, size = total + term, size + abs(term)
    return total, size


def _expansion_cases():
    rng = np.random.default_rng(35)
    monos = [(), ((0, -1),),
             ((0, -1), (1, -1), (2, 1), (3, 1)),                      # same-kind neighbours
             ((0, 1), (1, 1), (2, 1), (3, -1), (4, -1), (5, -1)),
             ((0, -1), (1, 1), (0, -1), (2, 1)),                      # a repeated field
             ((0, -1), (1, 1), (2, -1), (1, 1), (3, -1), (4, 1))]
    for n in (2, 4, 6, 8, 10, 10):
        kinds = [-1] * (n // 2) + [1] * (n // 2)
        rng.shuffle(kinds)
        monos.append(tuple((int(a), k) for a, k in zip(rng.permutation(n), kinds)))
    monos.append(tuple((i, 1 - 2 * int(rng.integers(0, 2))) for i in range(8)))  # any balance
    for mono in monos:
        n = 1 + max((a for a, _ in mono), default=0)
        yield mono, rational_cov(rng, n)
        yield mono, rng.standard_normal((n, n)).tolist()


@pytest.mark.parametrize("mono,g", list(_expansion_cases()))
def test_wick_expansion_is_the_sum_over_matchings(mono, g, monkeypatch):
    """The memoized recursion against an explicit sum over perfect matchings
    (exact for Fractions, to 1e-13 of the summed |terms| for floats), and
    equal in value and type to the unmemoized recursion.  It never calls _det."""
    monkeypatch.setattr(gr, "_det", None)
    got, old = gr.wick_expansion(mono, g), _unmemoized_expansion(mono, g)
    assert got == old and type(got) is type(old)
    want, size = _matching_sum(mono, g)
    if isinstance(g[0][0], Fraction):
        assert got == want
    else:
        assert abs(got - want) <= 1e-13 * size


def test_wick_rejects_unknown_method_before_the_balance_check():
    with pytest.raises(ValueError, match="^method must be auto, det or expansion$"):
        gr.wick_expectation(((0, -1),), [[Fraction(1)]], method="bogus")


def test_wick_rejects_other_field_kinds():
    with pytest.raises(ValueError, match=r"^field \(0, 2\) has kind 2, not -1"):
        gr.wick_expectation(((0, -1), (0, 2)), [[1]])


def test_wick_mixed_int_and_float_covariance_takes_the_float_determinant():
    g = [[1, 0.3, 0.7], [0.2, 1, 0.4], [0.9, 0.1, 1]]  # exact diagonal, float elsewhere
    mono = ((0, -1), (1, 1), (1, -1), (2, 1))
    d = gr.wick_expectation(mono, g)  # auto: compared with the expansion within 1e-9
    assert isinstance(d, float) and abs(d - gr.wick_expansion(mono, g)) <= 1e-12


def test_wick_empty_monomial_is_one():
    for g in ([], [[Fraction(3)]], np.eye(2)):
        assert gr.wick_expectation((), g) == 1


def test_truncated_expectation_single_cluster():
    rng = np.random.default_rng(2)
    g = rational_cov(rng, 4)
    cl = (((0, -1), (1, +1), (2, -1), (3, +1)),)
    assert gr.truncated_expectation_oracle(cl, g) == gr.wick_expectation(cl[0], g)


def test_truncated_expectation_connected_pair():
    # two 2-field clusters: connected part is -g(a,d) g(c,b)
    rng = np.random.default_rng(3)
    g = rational_cov(rng, 4)
    cl = (((0, -1), (1, +1)), ((2, -1), (3, +1)))
    expect = -g[0][3] * g[2][1]
    assert gr.truncated_expectation_oracle(cl, g) == expect


def test_truncated_expectation_clustering_property():
    # disconnected covariance support (zero cross-entries) -> cumulant 0
    g = [[Fraction(0)] * 4 for _ in range(4)]
    g[0][1] = Fraction(2)
    g[2][3] = Fraction(5)
    cl = (((0, -1), (1, +1)), ((2, -1), (3, +1)))
    assert gr.truncated_expectation_oracle(cl, g) == 0


def test_truncated_expectation_cluster_permutation():
    rng = np.random.default_rng(4)
    g = rational_cov(rng, 6)
    cl = (((0, -1), (1, +1)), ((2, -1), (3, +1)), ((4, -1), (5, +1)))
    base = gr.truncated_expectation_oracle(cl, g)
    perm = (cl[2], cl[0], cl[1])
    # even clusters commute: any cluster permutation leaves the value fixed
    assert gr.truncated_expectation_oracle(perm, g) == base


def test_truncated_expectation_rejects_odd_cluster():
    g = [[Fraction(1)] * 2 for _ in range(2)]
    with pytest.raises(ValueError):
        gr.truncated_expectation_oracle((((0, -1),), ((1, +1),)), g)


def test_anchored_tree_counts():
    # s = 2: n1- n2+ + n2- n1+ single-line trees
    cl = (((0, -1), (1, +1)), ((2, -1), (3, +1)))
    trees = gr.enumerate_anchored_trees(cl)
    assert len(trees) == 2
    assert all(t.contracts_to_tree(2) for t in trees)

    cl2 = (((0, -1), (1, -1), (2, +1), (3, +1)), ((4, -1), (5, +1)))
    trees2 = gr.enumerate_anchored_trees(cl2)
    assert len(trees2) == 2 * 1 + 1 * 2  # minus1*plus2 + minus2*plus1
    assert all(t.contracts_to_tree(2) for t in trees2)

    assert gr.enumerate_anchored_trees((((0, -1), (1, +1)),)) == [gr.AnchoredTree(lines=())]


@pytest.mark.parametrize("s", [1, 2, 3, 4])
def test_spanning_trees_match_cayley(s):
    # Cayley's formula: s^(s-2) labelled trees on s vertices (1 for s = 1)
    trees = gr._spanning_trees(s)
    assert len(trees) == len(set(trees)) == round(s ** (s - 2))
    for tree in trees:
        assert len(tree) == s - 1 and all(a < b for a, b in tree)


def test_tree_paths_by_hand():
    chain = gr._tree_paths(((0, 1), (1, 2), (2, 3)), 4)
    assert chain[0, 3] == (0, 1, 2) and chain[3, 0] == (2, 1, 0)
    assert chain[1, 3] == (1, 2) and chain[3, 1] == (2, 1)
    assert chain[0, 1] == chain[1, 0] == (0,)
    assert all(chain[i, i] == () for i in range(4))
    star = gr._tree_paths(((0, 1), (0, 2), (0, 3)), 4)
    assert star[1, 2] == (0, 1) and star[2, 1] == (1, 0)
    assert star[3, 1] == (2, 0) and star[1, 3] == (0, 2)
    assert [star[0, u] for u in (1, 2, 3)] == [(0,), (1,), (2,)]
    assert [star[u, 0] for u in (1, 2, 3)] == [(0,), (1,), (2,)]
    assert len(chain) == len(star) == 16
    assert gr._tree_paths(((0, 1), (2, 3)), 4) is None
    assert gr._tree_paths(((0, 1), (0, 1)), 3) is None


def test_contracts_to_tree_needs_a_spanning_tree():
    a, b, c = (0, -1), (1, 1), (2, -1)
    assert gr.AnchoredTree(lines=((0, a, 1, b), (2, c, 1, b))).contracts_to_tree(3)
    assert not gr.AnchoredTree(lines=((0, a, 1, b), (1, c, 0, b))).contracts_to_tree(3)
    assert not gr.AnchoredTree(lines=((0, a, 1, b),)).contracts_to_tree(3)
    assert gr.AnchoredTree(lines=()).contracts_to_tree(1)


@pytest.mark.parametrize("clusters, oracle", [
    ((((0, -1), (1, 1)), ((0, -1), (2, 1))), -0.5),
    ((((0, -1), (1, 1)), ((2, -1), (1, 1))), -1.0)])
def test_repeated_field_is_refused_where_the_oracle_is_nilpotent(clusters, oracle):
    # the anchored-tree formula needs distinct fields; the oracle's values
    # are the cumulants of the nilpotent monomials
    g = np.ones((3, 3))
    g[0, 2] = 0.5
    assert gr.truncated_expectation_oracle(clusters, g) == oracle
    with pytest.raises(ValueError, match="appears more than once"):
        gr.bbf_evaluate(clusters, g)
    with pytest.raises(ValueError, match="appears more than once"):
        gr.enumerate_anchored_trees(clusters)


def test_bbf_rejects_odd_clusters():
    clusters = (((0, -1),), ((1, 1), (2, -1)), ((3, 1),))
    for f in (gr.bbf_evaluate, gr.truncated_expectation_oracle):
        with pytest.raises(ValueError, match="^clusters must hold an even number of fields$"):
            f(clusters, np.ones((4, 4)))


@pytest.mark.parametrize("clusters, match", [
    ((), "^need at least one cluster$"),
    ((((0, -1), (1, 2)),), r"^field \(1, 2\) has kind 2, not -1")])
def test_entry_points_reject_no_clusters_and_other_kinds(clusters, match):
    g = np.ones((2, 2))
    for call in (lambda: gr.bbf_evaluate(clusters, g),
                 lambda: gr.truncated_expectation_oracle(clusters, g),
                 lambda: gr.enumerate_anchored_trees(clusters)):
        with pytest.raises(ValueError, match=match):
            call()


def test_bbf_connected_pair_regression():
    # two 2-field clusters whose only covariances are g(0,3) = 2, g(2,1) = 3:
    # the connected part is -g(0,3) g(2,1) = -6, with no sign to calibrate
    cl = (((0, -1), (1, +1)), ((2, -1), (3, +1)))
    g = [[0, 0, 0, 2], [0, 0, 0, 0], [0, 3, 0, 0], [0, 0, 0, 0]]
    assert gr.truncated_expectation_oracle(cl, [[Fraction(v) for v in row] for row in g]) == -6
    assert gr.bbf_evaluate(cl, g) == pytest.approx(-6.0, abs=1e-12)


@st.composite
def _bbf_cases(draw):
    """1..3 clusters of 2 or 4 fields, at most 10 in all, with the +- kinds of
    all fields in shuffled order (half of each), and a float covariance."""
    s = draw(st.integers(1, 3))
    sizes = draw(st.lists(st.sampled_from([2, 4]), min_size=s, max_size=s)
                 .filter(lambda z: sum(z) <= 10))
    nf = sum(sizes)
    eps = draw(st.permutations([-1, +1] * (nf // 2)))
    bounds = np.cumsum([0] + sizes)
    clusters = tuple(tuple((i, eps[i]) for i in range(lo, hi))
                     for lo, hi in zip(bounds, bounds[1:]))
    g = draw(st.lists(st.floats(-2.0, 2.0), min_size=nf * nf, max_size=nf * nf))
    return clusters, np.array(g).reshape(nf, nf)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=_bbf_cases())
def test_bbf_equals_cumulant_oracle(case):
    clusters, g = case
    oracle = float(gr.truncated_expectation_oracle(clusters, g))
    assert abs(gr.bbf_evaluate(clusters, g) - oracle) <= 1e-10 * max(1.0, abs(oracle))


def _singular_cases():
    """Covariances with singular minors: all-zero ones, and one whose column 1
    holds a subnormal beside an exact zero, where the determinant of some 2x2
    minors meets log 0."""
    cl = (((0, -1), (1, 1)), ((2, -1), (3, 1), (4, -1), (5, 1)))
    g = 1.0 + np.arange(36.0).reshape(6, 6) / 144.0
    g[4, 1], g[2, 1] = 5e-324, 0.0
    return [(cl, np.zeros((6, 6))), (rand_clusters(np.random.default_rng(3), (2, 4, 4)),
                                     np.zeros((10, 10))), (cl, g)]


@pytest.mark.parametrize("case", _singular_cases())
def test_bbf_singular_minors_match_oracle(case):
    clusters, g = case
    oracle = float(gr.truncated_expectation_oracle(clusters, g))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = gr.bbf_evaluate(clusters, g)
    assert abs(got - oracle) <= 1e-10 * max(1.0, abs(oracle))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data(), m=st.integers(1, 4))
def test_wick_det_equals_expansion_exactly(data, m):
    eps = data.draw(st.permutations([-1, +1] * m))
    idx = data.draw(st.permutations(range(2 * m)))
    mono = tuple((i, e) for i, e in zip(idx, eps))
    entry = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
    g = data.draw(st.lists(st.lists(entry, min_size=2 * m, max_size=2 * m),
                           min_size=2 * m, max_size=2 * m))
    assert gr.wick_expectation(mono, g, method="det") == gr.wick_expectation(
        mono, g, method="expansion")


def test_bbf_unbalanced_is_zero():
    # more psi^- than psi^+ fields: the expectation vanishes, as in the oracle
    cl = (((0, -1), (1, -1)), ((2, -1), (3, +1)))
    g = np.ones((4, 4))
    assert gr.truncated_expectation_oracle(cl, g) == 0
    assert gr.bbf_evaluate(cl, g) == 0.0


def test_bbf_single_cluster_is_plain_determinant():
    rng = np.random.default_rng(5)
    g = rng.standard_normal((4, 4))
    cl = (((0, -1), (1, +1), (2, -1), (3, +1)),)
    b = gr.bbf_evaluate(cl, g)
    assert b == pytest.approx(float(gr.wick_expectation(cl[0], g, method="det")), abs=1e-12)


def test_bbf_zero_cross_covariance():
    g = np.zeros((4, 4))
    g[0, 1] = 1.0
    g[2, 3] = 2.0
    cl = (((0, -1), (1, +1)), ((2, -1), (3, +1)))
    assert gr.bbf_evaluate(cl, g) == pytest.approx(0.0, abs=1e-14)


def test_bbf_matches_oracle_randomized():
    rng = np.random.default_rng(6)
    worst = 0.0
    for _ in range(30):
        cls = rand_clusters(rng, list(rng.choice([2, 4], size=2)))
        nf = sum(len(c) for c in cls)
        g = rng.standard_normal((nf, nf))
        o = float(gr.truncated_expectation_oracle(cls, g))
        worst = max(worst, abs(o - gr.bbf_evaluate(cls, g)))
    for _ in range(8):
        while True:
            sizes = list(rng.choice([2, 4], size=3))
            if sum(sizes) <= 10:
                break
        cls = rand_clusters(rng, sizes)
        nf = sum(len(c) for c in cls)
        g = rng.standard_normal((nf, nf))
        o = float(gr.truncated_expectation_oracle(cls, g))
        worst = max(worst, abs(o - gr.bbf_evaluate(cls, g)))
    assert worst < 1e-10


def test_bbf_size_limits():
    g = np.eye(16)
    big = tuple(tuple((4 * i + j, -1 if j < 2 else 1) for j in range(4))
                for i in range(4))
    with pytest.raises(gr.SizeLimitError):
        gr.bbf_evaluate(big, g)


def test_size_limit_error_is_one_class():
    assert gr.SizeLimitError is tr.SizeLimitError


def test_gram_hadamard_orthonormal_equality():
    f = np.eye(3)
    rep = gr.gram_hadamard_audit(f, f)
    assert rep.det == pytest.approx(1.0) and rep.bound == pytest.approx(1.0)
    assert rep.holds and rep.margin == pytest.approx(0.0, abs=1e-12)


def test_gram_hadamard_rank_deficient():
    f = np.array([[1.0, 0.0], [1.0, 0.0]])
    rep = gr.gram_hadamard_audit(f, f)
    assert rep.det == pytest.approx(0.0, abs=1e-14) and rep.holds


def test_gram_hadamard_random_audits():
    rng = np.random.default_rng(7)
    for _ in range(200):
        n = int(rng.integers(1, 9))
        d = n + int(rng.integers(0, 5))
        f = rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))
        g = rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))
        assert gr.gram_hadamard_audit(f, g).holds


def test_gram_factors_from_scale_band(p_star):
    """Single-scale propagator values form a Gram matrix: realize g(x, y)
    entrywise as momentum-space inner products and audit the bound."""
    from weylrg import multiscale as ms
    cut = ms.default_cutoff(p_star)
    c = ms.initial_couplings(p_star, regime=2).replace(h=-2)
    bg = ms.band_grid(-2, 2, +1, c, p_star, cut, n=10, h_star=0)
    # the 00 entry f (i k0 + m3) / (Z (k0^2 + lambda^2)) on the 4-D box
    m1, m2, m3 = bg.mass_arrays()
    k0 = bg.k0s[:, None, None, None]
    e00 = bg.weight * (1j * k0 + m3) / (bg.couplings.Z * (k0 ** 2 + m1 ** 2 + m2 ** 2 + m3 ** 2))
    w = bg.weight.ravel()
    mask = w > 0
    # factor g(x,y)_{00} = sum_k (f A^{-1}/Z)_{00} e^{-ik(x-y)}: vectors
    # u_x(k) = e^{-ikx} sqrt(|F|), v_y(k) = e^{-iky} F sqrt(|F|)^{-1}... use
    # the simplest split F = sqrt(F) * sqrt(F) through the modulus/phase
    F = e00.ravel()[mask] * bg.cell
    xs = [0.0, 1.0, 2.0, 5.0]
    k3 = np.broadcast_to(bg.k3s[None, None, None, :], bg.weight.shape).ravel()[mask]
    root = np.sqrt(np.abs(F))
    phase = np.where(np.abs(F) > 0, F / np.where(np.abs(F) > 0, np.abs(F), 1.0), 0.0)
    fv = np.array([np.exp(-1j * k3 * x) * root for x in xs])
    gv = np.array([np.exp(-1j * k3 * (-y)) * root * phase for y in xs])
    rep = gr.gram_hadamard_audit(fv.conj(), gv)  # <f_i, g_j> = sum f_i* g_j
    assert rep.holds
