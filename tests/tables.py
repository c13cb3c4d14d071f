"""Hand-checked golden tables shared across the test modules.

Every table here was verified cell-by-cell against an independent
derivation before being frozen; tests treat them as ground truth.
"""

# Locally-zero table on three elements.
LOC3 = [[0, 0, 2], [1, 1, 1], [0, 2, 2]]

# Four-element algebra satisfying the BCI axioms but not BCK (zero = 0).
BCI4 = [[0, 0, 2, 2], [1, 0, 2, 2], [2, 2, 0, 0], [3, 2, 1, 0]]
BCI4_U = [[0, 0, 2, 2], [1, 1, 2, 2], [2, 2, 2, 0], [3, 2, 1, 3]]
BCI4_A = [[0, 0, 0, 0], [1, 0, 1, 1], [2, 2, 0, 2], [3, 3, 3, 0]]

# Five-element strong d-algebra (zero = 0); u-composite.
D5 = [
    [0, 0, 0, 0, 0],
    [1, 0, 1, 0, 1],
    [2, 2, 0, 3, 0],
    [3, 3, 2, 0, 3],
    [4, 4, 1, 1, 0],
]
D5_U = [
    [0, 0, 0, 0, 0],
    [1, 1, 1, 0, 1],
    [2, 2, 2, 3, 0],
    [3, 3, 2, 3, 3],
    [4, 4, 1, 1, 4],
]
D5_A = [
    [0, 0, 0, 0, 0],
    [1, 0, 1, 1, 1],
    [2, 2, 0, 2, 2],
    [3, 3, 3, 0, 3],
    [4, 4, 4, 4, 0],
]

# Five-element table whose signature/similar product does NOT reproduce it.
RAND5 = [
    [3, 2, 2, 1, 1],
    [1, 3, 3, 2, 3],
    [3, 3, 0, 3, 0],
    [1, 0, 1, 1, 2],
    [1, 1, 2, 4, 2],
]
RAND5_U = [
    [0, 2, 2, 1, 1],
    [1, 1, 3, 2, 3],
    [3, 3, 2, 3, 0],
    [1, 0, 1, 3, 2],
    [1, 1, 2, 4, 4],
]
RAND5_A = [
    [3, 0, 0, 0, 0],
    [1, 3, 1, 1, 1],
    [2, 2, 0, 2, 2],
    [3, 3, 3, 1, 3],
    [4, 4, 4, 4, 2],
]
RAND5_UA = [
    [3, 2, 2, 3, 3],
    [1, 3, 1, 2, 3],
    [3, 1, 0, 3, 0],
    [3, 0, 1, 1, 2],
    [3, 1, 2, 4, 2],
]

# Three-element BCK-algebra (zero = 0): signature-prime, u-normal,
# semi-neutral, and composite for the orient/skew pair.
BCK3 = [[0, 0, 0], [1, 0, 1], [2, 2, 0]]
BCK3_O = [[0, 0, 2], [1, 1, 1], [0, 2, 2]]
BCK3_J = [[0, 0, 2], [1, 0, 1], [0, 2, 0]]

# Cyclic group of order 3: one factor order works, the other does not.
CYC3 = [[0, 1, 2], [1, 2, 0], [2, 0, 1]]
CYC3_U = [[0, 1, 2], [1, 1, 0], [2, 0, 2]]
CYC3_A = [[0, 0, 0], [1, 2, 1], [2, 2, 1]]
CYC3_UA = [[0, 2, 1], [2, 2, 0], [1, 0, 1]]

# Right-zero table on three elements and its orient/skew factors.
RZ3_O = [[0, 0, 2], [1, 1, 1], [0, 2, 2]]
RZ3_J = [[0, 1, 0], [0, 1, 2], [2, 1, 2]]

# Orientation + twisted-orientation table.
TOP3 = [[0, 1, 2], [1, 1, 2], [2, 1, 2]]

# Table used for the four diagonal readings.
DIAG4 = [[0, 1, 0, 3], [1, 1, 1, 0], [2, 2, 2, 3], [0, 3, 2, 3]]

# Klein-style group table: bi-diagonal, equal to its own skew factor.
GROUP4 = [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 1, 0], [3, 2, 0, 1]]
GROUP4_O = [[0, 0, 0, 3], [1, 1, 2, 1], [2, 1, 2, 2], [0, 3, 3, 3]]

# Orientation-property table on four elements; j-normal.
OP4 = [[0, 0, 2, 0], [1, 1, 2, 1], [0, 1, 2, 3], [3, 3, 2, 3]]
OP4_O = GROUP4_O
OP4_J = [[0, 0, 2, 3], [1, 1, 1, 1], [0, 2, 2, 3], [0, 3, 2, 3]]

# Locally-zero table on six elements with its orient and skew factors.
LOC6 = [
    [0, 1, 0, 0, 4, 0],
    [0, 1, 2, 3, 1, 5],
    [2, 1, 2, 3, 4, 2],
    [3, 1, 2, 3, 3, 3],
    [0, 4, 2, 4, 4, 4],
    [5, 1, 5, 5, 5, 5],
]
LOC6_O = [
    [0, 0, 0, 0, 0, 5],
    [1, 1, 1, 1, 4, 1],
    [2, 2, 2, 3, 2, 2],
    [3, 3, 2, 3, 3, 3],
    [4, 1, 4, 4, 4, 4],
    [0, 5, 5, 5, 5, 5],
]
LOC6_J = [
    [0, 1, 0, 0, 4, 5],
    [0, 1, 2, 3, 4, 5],
    [2, 1, 2, 2, 4, 2],
    [3, 1, 3, 3, 3, 3],
    [0, 1, 2, 4, 4, 4],
    [0, 1, 5, 5, 5, 5],
]
LOC6_EDGES = [(0, 2), (0, 3), (0, 5), (1, 4), (2, 5), (3, 4), (3, 5), (4, 5)]
LOC6_O_NONEDGES = [(0, 5), (1, 4), (2, 3)]  # complement within K6
LOC6_J_EDGES = [(0, 2), (0, 3), (2, 3), (2, 5), (3, 4), (3, 5), (4, 5)]

# Three-element algebra satisfying the Q axiom (zero = 0); semi-composite.
Q3 = [[0, 2, 1], [1, 0, 2], [2, 1, 0]]
Q3_U = [[0, 2, 1], [1, 1, 2], [2, 1, 2]]
Q3_A = [[0, 0, 0], [1, 0, 1], [2, 2, 0]]

# Star graph on four vertices (center 1) and the matching locally-zero table.
STAR4_EDGES = [(0, 1), (1, 2), (1, 3)]
STAR4 = [[0, 0, 2, 3], [1, 1, 1, 1], [0, 2, 2, 3], [0, 3, 2, 3]]
STAR4_O = GROUP4_O
STAR4_J = [[0, 0, 2, 0], [1, 1, 2, 1], [0, 1, 2, 3], [3, 3, 2, 3]]
STAR4_O_EDGES = [(0, 1), (0, 2), (1, 3), (2, 3)]
STAR4_J_EDGES = [(0, 1), (0, 3), (1, 3)]

# Locally-zero but not central: pairs {0,1} and {0,2} act left-zero while
# {1,2} acts right-zero.  The mix is what breaks commuting.
MIXED3 = [[0, 0, 0], [1, 1, 2], [2, 1, 2]]
MIXED3_WITNESS = [[0, 0, 0], [0, 0, 0], [0, 1, 0]]

# Frozen axiom vectors (registry order) for the zero-bearing fixtures.
AXIOMS_BCI4 = {
    "B1": True, "B2": True, "B": False, "BG": False, "BM": False,
    "BH": True, "BF": False, "BN": False, "BO": False, "BP1": False,
    "BP2": False, "Q": True, "CO": False, "BZ": True, "K": False,
    "I": True, "BI": False, "STRONG": False,
}
AXIOMS_D5 = {
    "B1": True, "B2": True, "B": False, "BG": False, "BM": False,
    "BH": True, "BF": False, "BN": False, "BO": False, "BP1": False,
    "BP2": False, "Q": False, "CO": False, "BZ": False, "K": True,
    "I": False, "BI": False, "STRONG": True,
}
AXIOMS_BCK3 = {
    "B1": True, "B2": True, "B": False, "BG": False, "BM": False,
    "BH": True, "BF": False, "BN": False, "BO": False, "BP1": False,
    "BP2": False, "Q": True, "CO": False, "BZ": True, "K": True,
    "I": True, "BI": True, "STRONG": True,
}
AXIOMS_Q3 = {
    "B1": True, "B2": True, "B": True, "BG": True, "BM": True,
    "BH": True, "BF": True, "BN": True, "BO": True, "BP1": True,
    "BP2": True, "Q": True, "CO": False, "BZ": True, "K": False,
    "I": True, "BI": False, "STRONG": True,
}
# SHA-256 of json.dumps([[axiom_vector(g), algebra_classes(g)], ...]) over
# every table at orders 1 and 2 and random_groupoids(n, 300, seed=n) at
# orders 3 to 6, each table once per zero in ascending order.
AXIOM_DIGEST = "7106e92f1f102c4cc5828ee3b8001472dccb6232244f4a33919652cb7c81da5f"

CLASSES_BCI4 = ["BCI", "BH", "Q"]
CLASSES_D5 = ["d", "strong-d", "BH", "strong-B1"]
CLASSES_BCK3 = [
    "BCI", "BCK", "d", "strong-d", "BH", "BI", "Q",
    "strong-B1", "semi-neutral-B1",
]
CLASSES_Q3 = ["B", "BG", "BCI", "BH", "Q", "strong-B1"]

# Full census results, frozen from a verified run.
CENSUS2 = {
    "idempotent": 4, "strong": 8, "locally_zero": 2, "orientation": 4,
    "twisted_orientation": 12, "bi_diagonal": 8, "abelian": 8,
    "signature_prime": 4, "similar_prime": 4, "orient_prime": 0,
    "skew_prime": 1, "ua_holds": 12, "au_holds": 16, "oj_holds": 16,
    "jo_holds": 16, "ua_composite": 5, "au_composite": 9,
    "oj_composite": 15, "jo_composite": 15, "u_composite": 5,
    "j_composite": 15, "u_normal": 12, "j_normal": 16,
}
CENSUS3 = {
    "idempotent": 729, "strong": 5832, "locally_zero": 8, "orientation": 64,
    "twisted_orientation": 5832, "bi_diagonal": 6561, "abelian": 729,
    "signature_prime": 27, "similar_prime": 729, "orient_prime": 0,
    "skew_prime": 1, "ua_holds": 9645, "au_holds": 19683,
    "oj_holds": 19683, "jo_holds": 6615, "ua_composite": 8890,
    "au_composite": 18928, "oj_composite": 19682, "jo_composite": 6614,
    "u_composite": 8890, "j_composite": 6614, "u_normal": 9645,
    "j_normal": 6615,
}

# SHA-256 of json.dumps([r.to_dict() for r in reports]) for
# verify_claims(order) at orders 2 and 3 and
# verify_claims(order, sample=200, seed=1) at orders 4, 5 and 6.  The
# sampled reports pin the main sample, but of the seeded side streams
# (random triples, locally-zero and operand-valued pools) only their
# counts: every side-domain claim passes at orders 4-6, so no side table
# reaches a report.  SIDE_DIGESTS pins the side tables themselves.
VERIFY_DIGESTS = {
    2: "2290a3fba785587cd1f1f9e6ef4f01a67e92e58568f90f06f193a8a891cff9c7",
    3: "54c614979e61d3bcedcde0e0497542851db0ccd69b236c73c7040a903b1be0dd",
    4: "44000e04dec3dd9899a432cf9213e0e20428ba6ac0abb107c51ce111887c6835",
    5: "a37946c0edfd88a19972d2b70bb09c5959d2bc7d5fd2898f06c94c33ca1eba84",
    6: "c04bfe425150ab1ed6ba4f16928e3ec5c912e84a6db87ca6c86aba37602f265d",
}

# SHA-256 of repr(list(ctx.op_tables())) and repr(list(ctx.locally_zero_tables()))
# for a sampled ClaimContext of the order with seed 1 and 50 main-domain tables
SIDE_DIGESTS = {
    4: ("8c9176cb9d547055310bd1f19c677c0e88dea6434ca03a3d9f4d84843f3e6ade",
        "656aa00d09b432f767fa5818fd83decff90788cd3506bc9cc7ca18bec5f6391a"),
    5: ("d0419cf3509bc90cc9770b212c3d7c0edfd26bffd4ed3ddcdc9a8a6ab1206be4",
        "a1507b6f406affce1f1f63ed354a96283e801a7c6db7e42e6810700ad8cf88f4"),
    6: ("7986a529114befac7d6f43a917f933757c233890ed5b9fc2c501a97f49fff391",
        "63ac0581de38b7d187d1faddaccd3ad9e596c81abfe8c16f2eff6986dee80f61"),
}
