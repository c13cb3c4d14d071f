"""Property-based checks over randomly drawn tables."""

from hypothesis import given, settings, strategies as st

from binsys import (
    factorize,
    find_inverse,
    groupoid,
    identity,
    is_bi_diagonal,
    is_locally_zero,
    is_strong,
    has_orientation,
    orient_factor,
    parse_groupoid,
    product,
    serialize_groupoid,
    signature_factor,
    similar_factor,
    skew_factor,
    uniqueness_search,
)
from binsys.semigroup import _compose
from reference_kernel import ref_compose

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
    e = identity(g.order)
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
        e = identity(g.order)
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
    assert o == orient_factor(identity(g.order))


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
        slow = uniqueness_search(g, method, exhaustive=True)
        assert fast.solution_count == slow.solution_count
        assert fast.solutions == slow.solutions


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
