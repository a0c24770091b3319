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

# exit code, sha256 of stdout and sha256 of stderr of cli.main on each
# invocation, recorded with COLUMNS=80 (argparse wraps its usage line to
# the terminal width); the format tools/golden_cli.py prints

CLI_OUTPUT_SHA256 = """
0 d7b31f7b718d107add48e737c74145b714ab0d98aca299d868142096d439ac30 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 sigma T5
0 190045a6e62e46225e160ba5c8c5ec89060834efb74a75f5b1432789fdb009fe e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 sigma T5 --json
0 ada928d94d53daf84c1cb54576cf1d3a10995a14c3878407c2add816b3da120f e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 sigma M1
0 6e022d697723ed8c50c9388664d54c9de2707ed3b4458605ffe9fc0796363525 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 sigma M1 --json
0 63103fdf48724c2e3569ea8dab277368dc4825cb7c6ecd20b1dd8ecdcce5bbb3 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 factor x^6+x^5+x^3+x^2
0 abb6d0d1bf1748d3e3bf63c56508cc7265b6d7082b1b4e2cb6e79beb6d9de45e e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 factor x^6+x^5+x^3+x^2 --json
0 4ce77f2731db771e0209e8d5abb4913f8c35db26cedd3adae38a807ba05e1a52 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 repr S7
0 946b6d912bed54a9e1edc733f0dc93bd65ff332cdb94ff945a543f0af9ca3f0d e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 repr S7 --json
0 7ae58e3c394ac7fccbf3dd369a275e01436b4abf3ff074cd5268579ce55b5ed8 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 classify S3
0 c7f9020a958c6ebe2c228ebadd3b57f90923458838a5c7a9c71a68af3f5987d9 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 classify S3 --json
0 be769f88dbc8d836770728ab09d8b858dc90edccb8ea35f4ea40942878732d34 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 classify M4
0 5f4ce4354b6c0e24ad762c18b7be87b0bad873bd59df2333c61f07c525010b9b e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 classify M4 --json
0 9375c03a2c1703950c247e29e57789edb4bb7acc19395f3c0b50bbb5e1976334 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 verify-catalog
0 8b6daecd29f2edfcf49307e0afef9670e4a56a458975ec779367b2c917ba2de3 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 verify-catalog --json
1 57ad4d61b924d8ef761a6bf1a935a79132df14959c1d99240a1e5851a901ce17 7502e855e8b6a113ff3880ecedd1831fb6d4b2c350119521297f6afdf5f6e848 search
1 0f7728d36dbf4bde240c104512991514ff419d0efa61c16c321f52b4c3b3eac1 7502e855e8b6a113ff3880ecedd1831fb6d4b2c350119521297f6afdf5f6e848 search --json
1 12e9b74a6e807035f07c5f3456c7b59c35f34acce814fdff1d320366d75fd232 c3f118f551c4b351af509bdbfaefdb6dfdb1abfb98cb5fb008e2c438a8dae41b search --stage 3 --rule strict
1 91fa1e7d6c8ed70cdd3db2b395dcb5d6f55ba73cf83b43fd4a51b682fa5cc3c1 c3f118f551c4b351af509bdbfaefdb6dfdb1abfb98cb5fb008e2c438a8dae41b search --stage 3 --rule strict --json
0 0f17c08dc41ebefa256def79bab94ec0b46b23e8fb1e3162f27b00855ba4c67c e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 reciprocal
0 204fb8ebcc71846465b5e2b97928fcc97b21526aca67a686919e86760916e7cb e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 reciprocal --json
0 cf760fdf1c17c386d609df275776b29a667c8abca1aeb52e5e1eb6bdaf6c2811 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 identities
0 910f150af720e52785464aaa6d0fb4f2e078aad7de934d31d0cc55c894eebe42 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 identities --json
0 a194c3a041c7b6fce95f32b7c4f194aa11a97e7ca2b6c0c07376e5bc35196f8b e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 identities --max-exp 64
0 ec4781b4e012b96140fe9c1de99e664f6030cf7bfbc4e17971fc0945c5aafa92 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 identities --max-exp 64 --json
0 f8643b084ae01989b98e3f1c33c1fe3ac4b1df8ebcc64c67a14bb52eb1196e4a e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 identities --max-exp 4
0 96949879279bf67e7b705a23721a30394234a593ab4f1bb13d25af97aaef28ee e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 identities --max-exp 4 --json
0 1c04f0ef01dd0faf878e59f2bc4f1d5bb6ce14c78575a0beefdefd9ac93e8e62 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 tables
0 dc4bf49c2eddc9047fe2aab7c3f3b5443ccd030213eae061b4918f72b106e1a7 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 tables --json
0 fda02a5ecca0e249f173d73c5debbe0b921956f26ba67d6329bf2f77ce805ab0 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 conjecture M1 --hmax 8
0 e7d9bbc77eb30d0fee87150a731a8f5b8b406477fb8f6033cd2e22f29ce0e5fe e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 conjecture M1 --hmax 8 --json
0 3dc4ee1b0cae6ec601c73c9f9609eda5c9f30a670c99cd639b094ab30b0ea50b e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 conjecture x^127+x+1 --hmax 2
0 8bbbac7cc323001e778897edb01825a5eec12be013ff750363802ed48a55fb8e e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 conjecture x^127+x+1 --hmax 2 --json
0 b176abc212057d8956008849510b948bf0783db236d7dde166f0c5844763a364 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 conjecture x^127+x+1 --hmax 8
0 7e1059b9c8671ca6ee3d636bf465fbe690dae149ca2705288b3530f8ca7798d1 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 conjecture x^127+x+1 --hmax 8 --json
0 d1ea58c0e534154e1c4b6572d316edc9860bbc764aa728e4e7ef4f221518ff12 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 conjecture M12 M13 --hmax 40
0 f50deb514d321b5e5d62777d86e8a1d069837fd7c86d1bc387d5b4e4cb9d40b2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 conjecture M12 M13 --hmax 40 --json
2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 0f805d67ccfe5666930b07008347500e904238b4ab95ea961e5f64155f0d68b8 conjecture 0x2000820041 --hmax 2
2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 0f805d67ccfe5666930b07008347500e904238b4ab95ea961e5f64155f0d68b8 conjecture 0x2000820041 --hmax 2 --json
0 24b46a668e0a04e5b5f56a7cd0ac92da4e6cec61f4dfb9809d7eb209497916bf e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 admissible M1 M2 M3
0 f6ecd3bfdd4c89c841d8ff19b635116b669398730a11ee2ceec1cc76dc704a27 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 admissible M1 M2 M3 --json
1 af7977d228b99ac0f33f0fa23fd9552eb928211f28de140b73a11340aea4db91 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 admissible S11
1 c4c0f839c45a19a1c18263fced04584965452a8b7c1eab31ec5ec2a705fd7fc9 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 admissible S11 --json
2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 ce18d29214f52b4e50a3933ebb8da8e29b1490e1c579cbf4e8273d6ecf54d635 sigma 0
2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 ce18d29214f52b4e50a3933ebb8da8e29b1490e1c579cbf4e8273d6ecf54d635 sigma 0 --json
2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 bf2bc6b33894562fe8c55b8dfea8cd23efb67f99b59b21144e30415224be900e factor 0
2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 bf2bc6b33894562fe8c55b8dfea8cd23efb67f99b59b21144e30415224be900e factor 0 --json
2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 aa316156bd788a3555dbdaebdf8fbfc748849e860cfa6e2fedec99e898abb384 factor x^
2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 aa316156bd788a3555dbdaebdf8fbfc748849e860cfa6e2fedec99e898abb384 factor x^ --json
2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 6f603adfe3051c3c6b31cc836190ae7d03c2ba11837923ffffe9500b4a5b07be repr x^2
2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 6f603adfe3051c3c6b31cc836190ae7d03c2ba11837923ffffe9500b4a5b07be repr x^2 --json
2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 84b569f64a90461648ae37ec8cd571ff496ed059f006ed8f1112555576c3ea4f classify 1
2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 84b569f64a90461648ae37ec8cd571ff496ed059f006ed8f1112555576c3ea4f classify 1 --json
2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 7dece472bde2d7063c7e36143c5d93a74194552649474fdeeb240737750b8b99 tables bogus
2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 7dece472bde2d7063c7e36143c5d93a74194552649474fdeeb240737750b8b99 tables bogus --json
2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 0c3cdda4fa284d5033e52621d6ffe0edfdb2dcf7405ec53c2e36362b48aa12d8 reciprocal --max-abc 17
2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 0c3cdda4fa284d5033e52621d6ffe0edfdb2dcf7405ec53c2e36362b48aa12d8 reciprocal --max-abc 17 --json
2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 b88e70dc70587cb937d7837f6d039ee75b2f884d70fd5c53c8100309a65265b3 identities --max-exp 3
2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 b88e70dc70587cb937d7837f6d039ee75b2f884d70fd5c53c8100309a65265b3 identities --max-exp 3 --json
2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 0f805d67ccfe5666930b07008347500e904238b4ab95ea961e5f64155f0d68b8 conjecture x^4
2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 0f805d67ccfe5666930b07008347500e904238b4ab95ea961e5f64155f0d68b8 conjecture x^4 --json
2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 d52dc0b2773a88fd07194cdab1a2d1115fd0b5897220eba9dd25e27c28ebb0bd admissible M1 --budget 0
2 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 d52dc0b2773a88fd07194cdab1a2d1115fd0b5897220eba9dd25e27c28ebb0bd admissible M1 --budget 0 --json
"""
