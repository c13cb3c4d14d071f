"""Property-based checks over randomly drawn tables."""

from itertools import combinations

from hypothesis import given, settings, strategies as st

from binsys import (
    all_groupoids,
    classify,
    factorize,
    find_inverse,
    groupoid,
    in_center,
    is_bi_diagonal,
    is_locally_zero,
    is_strong,
    left_zero,
    has_orientation,
    orient_factor,
    parse_groupoid,
    product,
    right_zero,
    serialize_groupoid,
    signature_factor,
    similar_factor,
    skew_factor,
    uniqueness_search,
)
from binsys import core
from binsys.core import _bi_diagonal, _semi_neutral_table
from binsys.enumeration import (
    CENSUS_KEYS,
    _b1_diagonal,
    _census_terms,
    _is_abelian_group,
    _no_op_cells,
    _pair_atoms,
    _random_tables,
)
from binsys.factorization import METHODS, _orient, _signature, _similar, _skew, _solution_count
from binsys.semigroup import _compose
from reference_kernel import ref_compose, ref_relabel
from scan_oracles import randrange_tables, scan_factor_pairs

settings.register_profile("suite", max_examples=60, deadline=None, derandomize=True)
settings.load_profile("suite")


def table_strategy(min_order=1, max_order=5):
    return st.integers(min_order, max_order).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(0, n - 1), min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        )
    )


tables_any = table_strategy()


@st.composite
def invertible_tables(draw, min_order=4, max_order=6):
    """A table whose pair map permutes the cells.

    Diagonal cells go to diagonal cells by a permutation of the elements;
    the unordered off-diagonal pairs are permuted, each landing in either
    orientation.
    """
    n = draw(st.integers(min_order, max_order))
    diagonal = draw(st.permutations(range(n)))
    pairs = [(x, y) for x in range(n) for y in range(x + 1, n)]
    images = draw(st.permutations(pairs))
    flips = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    rows = [[x] * n for x in range(n)]
    for x in range(n):
        rows[x][x] = diagonal[x]
    for (x, y), (u, v), flip in zip(pairs, images, flips):
        rows[x][y], rows[y][x] = (v, u) if flip else (u, v)
    return rows
tables_small = table_strategy(max_order=3)
triples_small = st.integers(2, 3).flatmap(
    lambda n: st.tuples(
        *(
            st.lists(
                st.lists(st.integers(0, n - 1), min_size=n, max_size=n),
                min_size=n,
                max_size=n,
            )
            for _ in range(3)
        )
    )
)


@given(tables_any)
def test_identity_laws(rows):
    g = groupoid(rows)
    e = left_zero(g.order)
    assert product(e, g) == g
    assert product(g, e) == g


@given(triples_small)
def test_associativity(rows3):
    f, g, h = (groupoid(r) for r in rows3)
    assert product(product(f, g), h) == product(f, product(g, h))


@given(st.one_of(table_strategy(4, 6), invertible_tables()))
def test_inverse_is_two_sided(rows):
    g = groupoid(rows)
    h = find_inverse(g)
    if h is None:
        # two cells whose symmetric pairs agree stay equal in every g ⋄ h
        n = g.order
        pairs = {(g(x, y), g(y, x)) for x in range(n) for y in range(n)}
        assert len(pairs) < n * n
    else:
        e = left_zero(g.order)
        assert product(g, h) == e
        assert product(h, g) == e


@given(tables_any)
def test_au_always_reproduces(rows):
    g = groupoid(rows)
    assert product(similar_factor(g), signature_factor(g)) == g


@given(tables_any)
def test_oj_always_reproduces(rows):
    g = groupoid(rows)
    assert product(orient_factor(g), skew_factor(g)) == g


@given(tables_any)
def test_skew_involution(rows):
    g = groupoid(rows)
    assert skew_factor(skew_factor(g)) == g


@given(tables_any)
def test_skew_fixed_points_are_bi_diagonal(rows):
    g = groupoid(rows)
    assert (skew_factor(g) == g) == is_bi_diagonal(g)


@given(tables_any)
def test_orient_factor_shape(rows):
    g = groupoid(rows)
    o = orient_factor(g)
    assert is_locally_zero(o)
    assert has_orientation(o)
    # it is an invariant of the order, not of the table
    assert o == orient_factor(left_zero(g.order))


@given(tables_any)
def test_strong_tables_factor_uniquely(rows):
    g = groupoid(rows)
    if not is_strong(g):
        return
    assert factorize(g, "ua").reproduces
    rep = uniqueness_search(g, "ua")
    assert rep.solution_count == 1


@given(tables_small)
def test_uniqueness_matches_exhaustive(rows):
    g = groupoid(rows)
    for method in ("ua", "au", "oj", "jo"):
        fast = uniqueness_search(g, method)
        slow = scan_factor_pairs(g, method)
        assert fast.solution_count == len(slow)
        assert [(lt.table, rt.table) for lt, rt in fast.solutions] == slow


@st.composite
def factor_targets(draw, min_order=4, max_order=6):
    """Tables on which every uniqueness count shows up: uniform cells,
    cells from {0, 1} (equal symmetric pairs and repeated diagonal values
    give ua counts far above 1), and operand-valued tables (jo counts 1)."""
    n = draw(st.integers(min_order, max_order))
    kind = draw(st.sampled_from(["uniform", "binary", "operand"]))
    if kind == "operand":
        return [
            [x if x == y else draw(st.sampled_from([x, y])) for y in range(n)]
            for x in range(n)
        ]
    top = 1 if kind == "binary" else n - 1
    return draw(st.lists(
        st.lists(st.integers(0, top), min_size=n, max_size=n), min_size=n, max_size=n,
    ))


def pairwise_count(g, method):
    """The ua/jo solution count by brute force on each free cell pair.

    The right factor is forced (the derived one), and the left factor is
    free on symmetric cell pairs: off the diagonal for ua, on the
    anti-diagonal for jo.  A composite cell pair reads only its own left
    cells, so the count is 0 when a pinned cell misses g, else the product
    over free pairs of the (p, q) value pairs that give g's two cells.
    """
    t = g.table
    n = g.order
    derived = factorize(g, method)
    right = derived.right.table
    if method == "ua":
        free = [(x, y) for x in range(n) for y in range(x + 1, n)]
    else:
        free = [(i, n - 1 - i) for i in range(n // 2)]
    loose = {c for x, y in free for c in ((x, y), (y, x))}
    composite = _compose(derived.left.table, right)
    if any(composite[x][y] != t[x][y]
           for x in range(n) for y in range(n) if (x, y) not in loose):
        return 0
    count = 1
    for x, y in free:
        count *= sum(
            (right[p][q], right[q][p]) == (t[x][y], t[y][x])
            for p in range(n) for q in range(n)
        )
    return count


@given(factor_targets())
def test_solution_count_matches_search(rows):
    g = groupoid(rows)
    for method in METHODS:
        count = _solution_count(g.table, method)
        assert count == uniqueness_search(g, method).solution_count
        assert count == (pairwise_count(g, method) if method in ("ua", "jo") else 1)


@given(st.integers(1, 8), st.one_of(st.integers(), st.text(max_size=6)), st.integers(-1, 100))
def test_random_tables_match_randrange(order, seed, count):
    expected = list(randrange_tables(order, count, seed))
    assert list(_random_tables(order, count, seed)) == expected


@given(tables_any)
def test_factor_metadata_inherited(rows):
    g = groupoid(rows, zero=0)
    for factor in (
        signature_factor(g), similar_factor(g), orient_factor(g), skew_factor(g)
    ):
        assert factor.zero == 0


pairs_large = st.integers(4, 6).flatmap(
    lambda n: st.tuples(table_strategy(n, n), table_strategy(n, n))
)


@given(pairs_large)
def test_compose_matches_reference(rows2):
    gt, ht = (groupoid(r).table for r in rows2)
    assert _compose(gt, ht) == ref_compose(gt, ht)


@given(tables_any)
def test_serialize_parse_round_trip(rows):
    g = groupoid(rows, zero=0)
    again = parse_groupoid(serialize_groupoid(g))
    assert again == g
    assert again.zero == g.zero


@given(tables_any, st.booleans())
def test_product_is_closed_and_deterministic(rows, flip):
    g = groupoid(rows)
    h = skew_factor(g) if flip else similar_factor(g)
    out = product(g, h)
    assert out.order == g.order
    assert product(g, h) == out


# Value pairs (t[x][y], t[y][x]) for a swap orbit x < y of an order-n
# table, from two free values c and e, in the shapes the census atoms test.
ORBIT_SHAPES = (
    lambda n, x, y, c, e: (x, y),
    lambda n, x, y, c, e: (y, x),
    lambda n, x, y, c, e: (x, x),
    lambda n, x, y, c, e: (y, y),
    lambda n, x, y, c, e: (c, c),
    lambda n, x, y, c, e: (c, n - 1 - c),
    lambda n, x, y, c, e: (y, x) if x + y == n - 1 else (x, y),
    lambda n, x, y, c, e: (c, e),
)


@st.composite
def orbit_tables(draw, min_order=4, max_order=8):
    """A table built orbit by orbit from one or two shapes chosen for the
    whole table, over an idempotent or a drawn diagonal, so that an atom
    holds on every pair (and each census flag is true) often."""
    n = draw(st.integers(min_order, max_order))
    cell = st.integers(0, n - 1)
    idempotent = draw(st.booleans())
    rows = [[None] * n for _ in range(n)]
    for x in range(n):
        rows[x][x] = x if idempotent else draw(cell)
    shapes = draw(st.lists(st.sampled_from(ORBIT_SHAPES), min_size=1, max_size=2))
    for x, y in combinations(range(n), 2):
        shape = draw(st.sampled_from(shapes))
        rows[x][y], rows[y][x] = shape(n, x, y, draw(cell), draw(cell))
    return rows


def census_formulas(t):
    """Each census key's formula, as the census counts it, on one table:
    its signed terms whose diagonal and per-pair atoms t satisfies."""
    n = len(t)
    fixed = {v for v in range(n) if t[v][v] == v}
    atoms = [_pair_atoms(n, x, y, t[x][y], t[y][x], fixed)
             for x, y in combinations(range(n), 2)]
    return {
        key: sum(sign for sign, ks, mask in terms
                 if len(fixed) in ks and all(a & mask == mask for a in atoms))
        for key, terms in _census_terms(n).items()
    }


@settings(max_examples=300)
@given(orbit_tables())
def test_census_formulas_match_classify(rows):
    g = groupoid(rows)
    report = classify(g)
    flags = {**report.predicates, **report.to_dict()}
    assert census_formulas(g.table) == {key: int(flags[key]) for key in CENSUS_KEYS}


def center_witnesses(n):
    """O(n²) tables that, for n >= 2, split every table but the two
    projections from the center of ⋄: the constant tables (commuting with
    the constant k forces g(k, k) = k) and the single-orbit movers, which
    carry the swap orbit {(0, 1), (1, 0)} onto one orbit {(a, b), (b, a)}
    and every other cell to one element (commuting with them forces g to
    act as the identity or as the swap on every orbit alike)."""
    for k in range(n):
        yield tuple((k,) * n for _ in range(n))
    for a, b, k in [*((a, b, 0) for a, b in combinations(range(n), 2)), (0, 1, 1)]:
        rows = [[k] * n for _ in range(n)]
        rows[0][1], rows[1][0] = a, b
        yield tuple(map(tuple, rows))


def separated_from_center(t):
    return any(_compose(t, w) != _compose(w, t) for w in center_witnesses(len(t)))


@st.composite
def near_projections(draw, min_order=4, max_order=6):
    """A projection table with one or two cells redrawn."""
    n = draw(st.integers(min_order, max_order))
    right = draw(st.booleans())
    rows = [[y if right else x for y in range(n)] for x in range(n)]
    for _ in range(draw(st.integers(1, 2))):
        x, y, v = (draw(st.integers(0, n - 1)) for _ in range(3))
        rows[x][y] = v
    return rows


def test_center_witnesses_split_every_table_to_order_three():
    for order in (2, 3):
        for g in all_groupoids(order):
            assert separated_from_center(g.table) == (not in_center(g))


@settings(max_examples=300)
@given(orbit_tables(max_order=6) | near_projections() | table_strategy(4, 6))
def test_exact_center_matches_witnesses(rows):
    # orbit tables reach the projections and the locally-zero mixtures of
    # left- and right-zero pairs that is_locally_zero wrongly admits
    g = groupoid(rows)
    projection = g.table in (left_zero(g.order).table, right_zero(g.order).table)
    assert in_center(g) == projection
    assert separated_from_center(g.table) == (not projection)


# --- relabeling: the oracle for the verifier's once-per-class claims ---
#
# Renaming the elements by a permutation σ gives t^σ(σx, σy) = σ(t(x, y)).
# ⋄ and the signature and similar factors commute with every σ, and every
# flag but bi-diagonal is unchanged by it; the orient and skew factors and
# bi-diagonal follow only the reversal x ↦ n - 1 - x, which keeps the
# anti-diagonal in place.

# every core flag but bi-diagonal, and the verifier's own flags
SIGMA_INVARIANT_FLAGS = (
    core._idempotent, core._strong, core._orientation, core._locally_zero,
    core._twisted_orientation, core._abelian, _b1_diagonal, _no_op_cells, _is_abelian_group,
)
U_FAMILY_FIELDS = ("signature_prime", "similar_prime", "ua_holds", "au_holds",
                   "ua_composite", "au_composite", "u_composite", "u_normal")


@st.composite
def relabeled_tables(draw, count=1, min_order=2, max_order=17):
    """``count`` tables of one order and a renaming σ of its elements.  Each
    table is orbit-shaped, uniform, a relabeled cyclic group or one whose
    every cell avoids its operands, so that every flag above holds on some
    draws and fails on others."""
    n = draw(st.integers(min_order, max_order))
    tables = []
    for _ in range(count):
        kind = draw(st.sampled_from(("orbit", "uniform", "group", "off-operand")))
        if kind == "group":
            pi = draw(st.permutations(range(n)))
            rows = ref_relabel(tuple(tuple((x + y) % n for y in range(n)) for x in range(n)), pi)
        elif kind == "off-operand" and n > 2:
            rows = [[draw(st.sampled_from([v for v in range(n) if v not in (x, y)]))
                     for y in range(n)] for x in range(n)]
        else:
            rows = draw(orbit_tables(n, n) if kind == "orbit" else table_strategy(n, n))
        tables.append(tuple(map(tuple, rows)))
    return (*tables, tuple(draw(st.permutations(range(n)))))


@given(relabeled_tables(count=2))
def test_compose_commutes_with_relabeling(case):
    t, u, sigma = case
    assert _compose(ref_relabel(t, sigma), ref_relabel(u, sigma)) == ref_relabel(_compose(t, u), sigma)


@given(relabeled_tables())
def test_signature_and_similar_commute_with_relabeling(case):
    t, sigma = case
    for derive in (_signature, _similar):
        assert derive(ref_relabel(t, sigma)) == ref_relabel(derive(t), sigma), derive


@given(relabeled_tables())
def test_flags_are_relabeling_invariant(case):
    t, sigma = case
    s = ref_relabel(t, sigma)
    for flag in SIGMA_INVARIANT_FLAGS:
        assert flag(s) == flag(t), flag.__name__
    # a semi-neutral table's zero is renamed with it
    for z in (0, len(t) - 1):
        assert ref_relabel(_semi_neutral_table(len(t), z), sigma) == \
            _semi_neutral_table(len(t), sigma[z])


@given(relabeled_tables())
def test_u_family_is_relabeling_invariant(case):
    t, sigma = case
    before, after = classify(groupoid(t)), classify(groupoid(ref_relabel(t, sigma)))
    assert [getattr(after, f) for f in U_FAMILY_FIELDS] == [getattr(before, f) for f in U_FAMILY_FIELDS]


@given(relabeled_tables())
def test_orient_skew_and_bi_diagonal_follow_the_reversal(case):
    t, _ = case
    reversal = tuple(range(len(t)))[::-1]
    r = ref_relabel(t, reversal)
    for derive in (_orient, _skew):
        assert derive(r) == ref_relabel(derive(t), reversal), derive
    assert _bi_diagonal(r) == _bi_diagonal(t)


def test_skew_and_bi_diagonal_do_not_follow_every_renaming():
    # why the j-family claims are not checked once per class: at order 3 a
    # transposition that moves the anti-diagonal breaks both
    t, sigma = ((0, 1, 2), (0, 1, 2), (0, 1, 2)), (1, 0, 2)
    assert _skew(ref_relabel(t, sigma)) != ref_relabel(_skew(t), sigma)
    bi = ((0, 0, 1), (0, 0, 1), (1, 2, 0))
    assert _bi_diagonal(bi) and not _bi_diagonal(ref_relabel(bi, sigma))
