"""Frozen reference data for the table, reciprocal, and search reports.

Shared between the unit tests and the acceptance gate so both compare
against one copy of the truth.
"""

# sigma(base^(2h)) factorizations over the catalog prime family, keyed
# by base set, then by base name, then by h.  A base absent from its
# set's dict has no rows at all.  Every factor appears to the first
# power; the rows are stored as name -> exponent for order-free
# comparison.

EXPECTED_TABLE_ROWS = {
    "linear": {
        "x": {
            1: {"M1": 1},
            2: {"M4": 1},
            3: {"M2": 1, "M3": 1},
            4: {"M1": 1, "S4": 1},
            6: {"S3": 1},
            7: {"M1": 1, "M4": 1, "M5": 1, "S1": 1},
        },
        "x+1": {
            1: {"M1": 1},
            2: {"M5": 1},
            3: {"M2": 1, "M3": 1},
            4: {"M1": 1, "S5": 1},
            6: {"S6": 1},
            7: {"M1": 1, "M4": 1, "M5": 1, "S1": 1},
        },
    },
    "mersenne": {
        "M1": {
            1: {"S1": 1},
            2: {"S8": 1},
            3: {"M2": 1, "M3": 1, "S2": 1},
            7: {"M4": 1, "M5": 1, "S1": 1, "S7": 1, "S8": 1},
        },
        "M2": {1: {"M1": 1, "M5": 1}},
        "M3": {1: {"M1": 1, "M4": 1}},
    },
    "two-mersenne": {
        "S1": {1: {"M4": 1, "M5": 1}},
        "S2": {1: {"S1": 1, "S7": 1}},
    },
}

EXPECTED_BASE_NAMES = {
    "linear": ("x", "x+1"),
    "mersenne": tuple(f"M{i}" for i in range(1, 14)),
    "two-mersenne": tuple(f"S{j}" for j in range(1, 16)),
}

# reciprocal survey at max_abc = 6

EXPECTED_RECIPROCAL_ENTRY_COUNT = 80
EXPECTED_STAR_MERSENNE_MAP = {"S1": "M5", "S10": "M7", "S14": "M6", "S15": "M8"}
EXPECTED_SELF_RECIPROCAL = {"S3", "S4"}
EXPECTED_STAR_PAIRS = {("S2", "S5"), ("S6", "S9")}

# split identity families at max_exp = 32

EXPECTED_IDENTITY_COUNTS = (6, 15, 6, 129, 10)

# sieve reference counts and final survivors

EXPECTED_STAGE_COUNTS = {"1": 10944, "2": 4484, "3": 44, "final": 6}
COMPUTED_STAGE2_UNIFORM = 3314
COMPUTED_STAGE2_STRICT = 2159
EXPECTED_FINAL_NAMES = {"T2", "T4", "T5", "T7", "T8", "T11"}

# sha256 of json.dumps(run_search(stage, stage2_rule=rule).to_json(),
# sort_keys=True), keyed by rule, then stage; pins every sieve row

SEARCH_JSON_SHA256 = {
    "uniform": {
        "1": "20b945b30d7ee61f64f055bcb845e4b1f71b3513aa4cc6c02001d75269208f4e",
        "2": "d89d2537868e92887b7f96761a81b229e38fe734963caa1440c36bef22059e03",
        "3": "bdab2157afd9589bf9dde6747f342aebf4eb97590f107fb2de290ce263910dee",
        "final": "85c84c4bd78f3f882e01f5cda0255461c02255c46fee59a3cc867870a880f1cb",
    },
    "strict": {
        "1": "20b945b30d7ee61f64f055bcb845e4b1f71b3513aa4cc6c02001d75269208f4e",
        "2": "6cca57321b37408adb4995077cfe4f8a4e84016bd8709e63cc35aa39ff65fa0e",
        "3": "b862c91157fca14a2362aaab5d3afbdac5a1442c8319137a43f6a3c2815c9a05",
        "final": "5fb1a93af0e59d68e7c41ba136eb16c04d696ef1d92cf4ed341ef5e4a83fe526",
    },
}

# sha256 of json.dumps([factor_full(Poly(b)).to_json() for b in
# factor_json_inputs()], sort_keys=True), factor_json_inputs from
# test_factorize.py: 62 seeded inputs of degree 1..1000

FACTOR_JSON_SHA256 = "5842bc8b5434ee5aa2fafb547fad37ebe350d86058b6b2e3a0dede524fb11e5e"
