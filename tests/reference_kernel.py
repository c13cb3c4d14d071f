"""Slow reference paths for the raw-table ⋄ kernel and flag evaluation.

These are the implementations the library ran before every flag was
computed on raw tables: a nested-generator product, factor derivations
that build a Groupoid per factor, an identity test that walks every cell,
the structural predicates as loops over a Groupoid's cells (with the
constant-diagonal and no-operand-cell tests of the claim verifier), and
the cell-by-cell table validation.  The tests keep them as oracles for
``semigroup._compose``, both forms of every flag in ``core`` and
``enumeration``, ``predicate_vector``, ``classify`` and
``Groupoid.__post_init__``.  ``ref_relabel`` renames the elements of a
table cell by cell, the oracle for ``enumeration._relabelings`` and
``_classes``.
"""

from binsys import (
    AXIOMS,
    BadShape,
    ClosureViolation,
    Groupoid,
    OrderMismatch,
)


def ref_compose(gt, ht):
    """(g ⋄ h)(x, y) = h(g(x, y), g(y, x)), one generator per row."""
    n = len(gt)
    return tuple(
        tuple(ht[gt[x][y]][gt[y][x]] for y in range(n))
        for x in range(n)
    )


def ref_relabel(t, sigma):
    """t^σ, the table with σ(x)∘σ(y) = σ(x∘y): each cell written at its
    renamed place."""
    n = len(t)
    rows = [[None] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            rows[sigma[x]][sigma[y]] = sigma[t[x][y]]
    return tuple(map(tuple, rows))


def ref_product(g, h):
    if g.order != h.order:
        raise OrderMismatch(f"orders {g.order} and {h.order} differ")
    labels = g.labels if g.labels == h.labels else None
    zero = g.zero if g.zero == h.zero else None
    return Groupoid(ref_compose(g.table, h.table), labels=labels, zero=zero)


def ref_commutes(g, h):
    return ref_product(g, h) == ref_product(h, g)


def ref_is_identity(g):
    return all(v == x for x, row in enumerate(g.table) for v in row)


def ref_is_semi_neutral(g, zero):
    n, t = g.order, g.table
    return all(
        t[x][y] == (zero if x == y else x) for x in range(n) for y in range(n)
    )


def ref_is_idempotent(g):
    return all(g.table[x][x] == x for x in range(g.order))


def ref_is_strong(g):
    t = g.table
    n = g.order
    return all(t[x][y] != t[y][x] for x in range(n) for y in range(x + 1, n))


def ref_is_locally_zero(g):
    t = g.table
    n = g.order
    if not ref_is_idempotent(g):
        return False
    for x in range(n):
        for y in range(x + 1, n):
            if (t[x][y], t[y][x]) not in ((x, y), (y, x)):
                return False
    return True


def ref_has_orientation(g):
    t = g.table
    return all(t[x][y] in (x, y) for x in range(g.order) for y in range(g.order))


def ref_has_twisted_orientation(g):
    t = g.table
    n = g.order
    for x in range(n):
        for y in range(n):
            if t[x][y] == x and t[y][x] != x:
                return False
    return True


def ref_is_bi_diagonal(g):
    t = g.table
    n = g.order
    return all(t[i][n - 1 - i] == t[n - 1 - i][i] for i in range(n))


def ref_is_abelian(g):
    return all(
        g.table[x][y] == g.table[y][x]
        for x in range(g.order) for y in range(x + 1, g.order)
    )


def ref_b1_diagonal(g):
    """The constant-diagonal test of the zero claims: axiom B1 with the
    zero t[0][0]."""
    t = g.table
    return AXIOMS["B1"].check(t, len(t), t[0][0])


def ref_no_op_cells(g):
    # no idempotent element and no product equal to an operand
    t = g.table
    n = len(t)
    if any(t[x][x] == x for x in range(n)):
        return False
    return all(
        t[x][y] not in (x, y)
        for x in range(n) for y in range(n) if x != y
    )


# predicate name -> loop oracle, in predicate_vector's key order
REF_PREDICATES = {
    "idempotent": ref_is_idempotent,
    "strong": ref_is_strong,
    "locally_zero": ref_is_locally_zero,
    "orientation": ref_has_orientation,
    "twisted_orientation": ref_has_twisted_orientation,
    "bi_diagonal": ref_is_bi_diagonal,
    "abelian": ref_is_abelian,
}


def ref_predicate_vector(g):
    """``predicate_vector(g)`` from the loop oracles."""
    out = {name: fn(g) for name, fn in REF_PREDICATES.items()}
    out["semi_neutral"] = None if g.zero is None else ref_is_semi_neutral(g, g.zero)
    return out


def ref_signature(g):
    n = g.order
    table = tuple(
        tuple(x if x == y else g.table[x][y] for y in range(n))
        for x in range(n)
    )
    return Groupoid(table, labels=g.labels, zero=g.zero)


def ref_similar(g):
    n = g.order
    table = tuple(
        tuple(g.table[x][x] if x == y else x for y in range(n))
        for x in range(n)
    )
    return Groupoid(table, labels=g.labels, zero=g.zero)


def ref_orient(g):
    n = g.order
    table = tuple(
        tuple(y if x + y == n - 1 else x for y in range(n))
        for x in range(n)
    )
    return Groupoid(table, labels=g.labels, zero=g.zero)


def ref_skew(g):
    n = g.order
    table = tuple(
        tuple(g.table[y][x] if x + y == n - 1 else g.table[x][y] for y in range(n))
        for x in range(n)
    )
    return Groupoid(table, labels=g.labels, zero=g.zero)


def ref_holds(g):
    """The four factorization flags through Groupoid products."""
    sig, sim, ori, skw = ref_signature(g), ref_similar(g), ref_orient(g), ref_skew(g)
    return {
        "ua_holds": ref_product(sig, sim) == g,
        "au_holds": ref_product(sim, sig) == g,
        "oj_holds": ref_product(ori, skw) == g,
        "jo_holds": ref_product(skw, ori) == g,
    }


def ref_classify_by_zero(g):
    """``classify(g.with_metadata(zero=z)).to_dict()`` for z = None and
    every element, computed through Groupoid-valued factors."""
    sig, sim, ori, skw = ref_signature(g), ref_similar(g), ref_orient(g), ref_skew(g)
    holds = ref_holds(g)
    ua, au, oj, jo = (holds[k] for k in ("ua_holds", "au_holds", "oj_holds", "jo_holds"))
    sig_p, sim_p = ref_is_identity(sig), ref_is_identity(sim)
    ori_p, skw_p = ref_is_identity(ori), ref_is_identity(skw)
    ua_c = ua and not sig_p and not sim_p
    au_c = au and not sig_p and not sim_p
    oj_c = oj and not ori_p and not skw_p
    jo_c = jo and not ori_p and not skw_p
    u_n, j_n = ua and au, oj and jo
    u_c, j_c = ua_c and au_c, oj_c and jo_c
    base = ref_predicate_vector(g)
    out = {}
    for zero in (None, *range(g.order)):
        predicates = dict(base)
        if zero is None:
            semi_n = semi_c = None
        else:
            predicates["semi_neutral"] = ref_is_semi_neutral(g, zero)
            one_u = ref_is_semi_neutral(sig, zero) != ref_is_semi_neutral(sim, zero)
            one_j = ref_is_semi_neutral(ori, zero) != ref_is_semi_neutral(skw, zero)
            semi_n = (u_n and one_u) or (j_n and one_j)
            semi_c = (u_c and one_u) or (j_c and one_j)
        out[zero] = {
            "order": g.order,
            "predicates": predicates,
            "signature_prime": sig_p,
            "similar_prime": sim_p,
            "orient_prime": ori_p,
            "skew_prime": skw_p,
            **holds,
            "ua_composite": ua_c,
            "au_composite": au_c,
            "oj_composite": oj_c,
            "jo_composite": jo_c,
            "u_composite": u_c,
            "j_composite": j_c,
            "u_normal": u_n,
            "j_normal": j_n,
            "semi_normal": semi_n,
            "semi_composite": semi_c,
        }
    return out


def ref_validate(rows):
    """The table that the cell-by-cell validation stored, or the exception
    it raised (class and message)."""
    try:
        table = tuple(tuple(int(v) for v in row) for row in rows)
        n = len(table)
        if n == 0:
            raise BadShape("empty table")
        if any(len(row) != n for row in table):
            raise BadShape(f"table is not {n}x{n}")
        for x, row in enumerate(table):
            for y, v in enumerate(row):
                if not 0 <= v < n:
                    raise ClosureViolation(
                        f"cell ({x},{y}) holds {v}, outside 0..{n - 1}"
                    )
    except Exception as exc:  # the oracle reports whatever the old path raised
        return type(exc), str(exc)
    return table
