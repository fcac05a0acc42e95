"""Golden outputs of the Reed-Muller merge and the exhaustive oracle.

The digests below were recorded from the reference implementation; any
change to a conversion matrix, a cost record, the enumeration order or
the oracle's tie-break shows up here as a digest mismatch.  The oracle's
enumeration streams are pinned twice: in the order of the reference walk
(tests.conftest.reference_conversions), recorded first, and in the order
of enumerate_conversions' two-stage walk, which yields the same
conversions.  The CLI digests pin the exact stdout (and exit code) of the
merge, report, rm and verify commands.
"""

import hashlib
import random

import pytest

from convcode.cli import main
from convcode.codes import random_code
from convcode.gf2 import BitMatrix
from convcode.conversion import make_instance, rm_merge_chain, rm_merge_procedure
from convcode.matio import format_matrix
from convcode.oracle import enumerate_conversions, min_access_cost
from convcode.reedmuller import rm_code

from tests.conftest import reference_conversions


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def merge_digest(inst_y_report):
    _, y, report = inst_y_report
    return _sha(format_matrix(y.y)), report.to_record()


# (initial (n, k) per code, n_F, seed) of the random oracle instances:
# small candidate spaces, optimal costs 0 to 4, a trivial kernel in the
# fourth case and three initial codes in the last two.
ORACLE_CASES = (
    (((2, 1), (1, 1)), 3, 1),
    (((2, 1), (2, 1)), 3, 2),
    (((2, 1), (2, 1)), 3, 6),
    (((2, 2), (1, 1)), 4, 1),
    (((2, 2), (1, 1)), 4, 7),
    (((2, 1), (2, 1)), 4, 5),
    (((3, 2), (1, 1)), 4, 2),
    (((2, 1), (2, 2)), 4, 1),
    (((3, 1), (2, 1)), 3, 1),
    (((1, 1), (1, 1), (2, 1)), 4, 6),
    (((2, 1), (1, 1), (1, 1)), 4, 3),
)


def oracle_instance(blocks, n_f, seed):
    rng = random.Random(seed)
    initial = [random_code(n, k, rng) for n, k in blocks]
    final = random_code(n_f, sum(k for _, k in blocks), rng)
    return make_instance(initial, final)


def _report_text(report) -> str:
    return repr((
        [sorted(u) for u in report.unchanged_per_code],
        sorted(report.new_symbols),
        [sorted(r) for r in report.read_per_code],
    ))


def stream_lines(stream):
    """One line per (Y, report) of an enumeration stream, in its order."""
    return [f"{y.y.row_words}{_report_text(report)}\n" for y, report in stream]


def stream_digest(stream):
    """Digest of the ordered enumeration stream, and its length."""
    lines = stream_lines(stream)
    return _sha("".join(lines)), len(lines)


def oracle_digest(inst):
    """Digest of the ordered enumeration stream, its length, and the pick."""
    y, report = min_access_cost(inst)
    return (*stream_digest(enumerate_conversions(inst)),
            _sha(format_matrix(y.y)), report.to_record())


MERGE_GOLDEN = {
    (1, 2): (
        "a597cb66efbc9b0164195757f5e8dc09a97e3d8a271f6094eb46635372d4be7e",
        {"U": [2, 1], "W": 1, "R": [2, 1], "access": 4}),
    (1, 3): (
        "59b9ec2ae9da0cc8e328deeca4f587f846668d928f9c543b0c0e6b28be6806e9",
        {"U": [4, 1], "W": 3, "R": [3, 1], "access": 7}),
    (2, 3): (
        "71ce24dac55148a63c7ce1d4c38bdbc796ee5f95ca86990f2b05b6643ea6625f",
        {"U": [4, 3], "W": 1, "R": [4, 1], "access": 6}),
    (1, 4): (
        "d8db63e4e390c91235fe7be2037f0f63576c6cd62b94dea7c9814dac0170cd42",
        {"U": [8, 1], "W": 7, "R": [4, 1], "access": 12}),
    (2, 4): (
        "fb3cff9c9194711be74d87070e5f1bed207be0b0a0a4d5406bc8f25a6bd43be4",
        {"U": [8, 4], "W": 4, "R": [7, 4], "access": 15}),
    (3, 4): (
        "897ad07b93bc3770c29b6978f30ccb1070088bc9076dee4959dcef213c90a86f",
        {"U": [8, 7], "W": 1, "R": [8, 1], "access": 10}),
    (1, 5): (
        "dbf58d6ef40779edb7dfaa0aa6f02f5829cb3269331f9942d36bb8606e6ee6a3",
        {"U": [16, 1], "W": 15, "R": [5, 1], "access": 21}),
    (2, 5): (
        "577699395ae0f6832c53f84c35465c906e1469524a7f7ca63e9b803e0aa8d2b4",
        {"U": [16, 5], "W": 11, "R": [11, 5], "access": 27}),
    (3, 5): (
        "88d11279b58d7177498a146812d98b1a109e0f7b026794233dbb02e75cb8b7c3",
        {"U": [16, 11], "W": 5, "R": [15, 5], "access": 25}),
    (4, 5): (
        "fb98e800885796f78e2d6486b3e62736cf0359270e50321799c0d7dda7184569",
        {"U": [16, 15], "W": 1, "R": [16, 1], "access": 18}),
    (1, 6): (
        "c11485161ce7bc5a1007e82a69c95b02e10e25e157dcc70c01954ebdb5f37181",
        {"U": [32, 1], "W": 31, "R": [6, 1], "access": 38}),
    (2, 6): (
        "3b02e30da4520c7d95b7a4527e7a33c2e1a72d2e9a0d868191ab4edcff9fbe08",
        {"U": [32, 6], "W": 26, "R": [16, 6], "access": 48}),
    (3, 6): (
        "79495e6c676d3b08a68b147d8ef31efd75026faead8d1bf10974cc8dc83439da",
        {"U": [32, 16], "W": 16, "R": [26, 16], "access": 58}),
    (4, 6): (
        "7e5ffbf6b2d6521569649aed6bbc963d8d2dbbdb8c6e8b0c2a1a1e77e7d6fa3c",
        {"U": [32, 26], "W": 6, "R": [31, 6], "access": 43}),
    (5, 6): (
        "a0b7bde7da03687d0a616ab79c96af4c06ee14f39c877f6ab87ae2040e16b79f",
        {"U": [32, 31], "W": 1, "R": [32, 1], "access": 34}),
    (1, 7): (
        "24e06d7348ae6f96017df104acbf6952e3a81f2ad41087af558f56b17f170aae",
        {"U": [64, 1], "W": 63, "R": [7, 1], "access": 71}),
    (2, 7): (
        "292574084e1e27bc25dd50fced242286e93d30bcd1baa64d31be20152fb5f51b",
        {"U": [64, 7], "W": 57, "R": [22, 7], "access": 86}),
    (3, 7): (
        "ac744f94b4e1bc2fea6385fb5ebd9314ee78425743cfcc114a1d715b98f3d65c",
        {"U": [64, 22], "W": 42, "R": [42, 22], "access": 106}),
    (4, 7): (
        "dabeb8a32078db9fd275c6a5e132f772842c46227a71d8b4ce2992c90cc9068f",
        {"U": [64, 42], "W": 22, "R": [57, 22], "access": 101}),
    (5, 7): (
        "c333fd6deee0b2c1de0cdb0158d85f44ffaa5b0dafb7c3a9dca509bdf21bdf24",
        {"U": [64, 57], "W": 7, "R": [63, 7], "access": 77}),
    (6, 7): (
        "625eb866a78fa0a807ddc401a02b62ed915792d098f1e9b4de34e5222d9442bb",
        {"U": [64, 63], "W": 1, "R": [64, 1], "access": 66}),
    (1, 8): (
        "789498f78a5ac5648a33308069ea56700d0c2decf51078feb72db13e7c35362a",
        {"U": [128, 1], "W": 127, "R": [8, 1], "access": 136}),
    (2, 8): (
        "35f15223e3ade991cae6fd200825e660a6bea82f10ec93ec22a46fb649f0677e",
        {"U": [128, 8], "W": 120, "R": [29, 8], "access": 157}),
    (3, 8): (
        "7bab508c99507685a43aef66fc0d3e54b0aeea7d486c9eaac3db48382a30e794",
        {"U": [128, 29], "W": 99, "R": [64, 29], "access": 192}),
    (4, 8): (
        "51f1f75829a0f546a1b62f294ba6e335329275a1d7c03447bab0105d144b2df1",
        {"U": [128, 64], "W": 64, "R": [99, 64], "access": 227}),
    (5, 8): (
        "e788c72fa71aa76e8ff2a36fc334ad5e14ac80cfbb0f984f3460c532b7c28208",
        {"U": [128, 99], "W": 29, "R": [120, 29], "access": 178}),
    (6, 8): (
        "57a5cf23b90f88e1582e6214a1c184fe3100048d36df751b69d4e0b4d6a49bda",
        {"U": [128, 120], "W": 8, "R": [127, 8], "access": 143}),
    (7, 8): (
        "8eb678d8eb5844d9235c1dde9a425d0968089381ec46608454c4d630db6f34de",
        {"U": [128, 127], "W": 1, "R": [128, 1], "access": 130}),
    (1, 9): (
        "5f097b3bd83541ae5d914ca79c48e36c781dcc45167c5ba14e36fb2f7f5bbfa6",
        {"U": [256, 1], "W": 255, "R": [9, 1], "access": 265}),
    (2, 9): (
        "9dbb9c52e1610ff65bedf0ee6299a67b29fdb70eb71b4887dae1a369e9dad350",
        {"U": [256, 9], "W": 247, "R": [37, 9], "access": 293}),
    (3, 9): (
        "287a4ea510ff721b90d3fbdbd1b3b0009c2e8113f2afb75bfaea083f606644a4",
        {"U": [256, 37], "W": 219, "R": [93, 37], "access": 349}),
    (4, 9): (
        "3d74a12c39bdd18306c3df3a3663ce66d332d6ec82ce7a29ba28588c6daefc3f",
        {"U": [256, 93], "W": 163, "R": [163, 93], "access": 419}),
    (5, 9): (
        "4aa6b4626c9e7c2575f2e412b54723d91a76af0339fb373ea4971b1477a31068",
        {"U": [256, 163], "W": 93, "R": [219, 93], "access": 405}),
    (6, 9): (
        "7c65ae2bafcc9490348da62c4a9cdedc91c51278310e023756ad51148c1cbbf1",
        {"U": [256, 219], "W": 37, "R": [247, 37], "access": 321}),
    (7, 9): (
        "e3ee4241b3ffecdbe74c17e8f0e47720eb2364825efa3787f467382221a033e0",
        {"U": [256, 247], "W": 9, "R": [255, 9], "access": 273}),
    (8, 9): (
        "29f96e196ba3dfa821ff87a06e8fce2126ac80fcf82d0a98b2e53156e0822299",
        {"U": [256, 255], "W": 1, "R": [256, 1], "access": 258}),
}

CHAIN_GOLDEN = {
    (2, 4, 2): (
        "0dde59856a79146accfc9221b1b24dece91b6a6852a2700b6f3d6f0325e9efbb",
        {"U": [4, 3, 4], "W": 5, "R": [4, 4, 4], "access": 17}),
    (3, 8, 2): (
        "ea08357fe39868423adca42bbbf0d961868fbc49bf44d86ba139674dce5dc21c",
        {"U": [64, 22, 29], "W": 141, "R": [42, 22, 29], "access": 234}),
    (3, 7, 3): (
        "cc73c9d9695a853cb4d7b3d9f2cb25cba42f396d0e9867fcafec42ceb16d179f",
        {"U": [16, 11, 16, 22], "W": 63, "R": [15, 16, 32, 22], "access": 148}),
}

# Per case: the digest of the reference walk's stream and its length, and
# the pick's digest and record.
ORACLE_GOLDEN = {
    (((2, 1), (1, 1)), 3, 1): (
        "58083f3296d2d8337946d36c3ffc3f4e2a4eef9aa27ef8c1ee6365b3c34e56b8",
        48,
        "2058997963185ad7ce7b0061dc319215eef526e3763c61e8c0777987827d1a06",
        {"U": [1, 1], "W": 1, "R": [1, 1], "access": 3}),
    (((2, 1), (2, 1)), 3, 2): (
        "62f06acf2a262306ad2bb23e4038e3cdad86ef625d53c1b10d62ecfb4c0124ba",
        384,
        "e7c133e11db0c0a83f86d7cb1a5e1a6487dcfa63e9a30dcc8b5251688e30f549",
        {"U": [2, 1], "W": 0, "R": [0, 0], "access": 0}),
    (((2, 1), (2, 1)), 3, 6): (
        "68974d8886e0f09caa5afd10a1f776fea1a09fbf5bfdb9980c0cd1ad8fe8b6b5",
        384,
        "161552c51014b891c190de8196d61fbcb6220e4605f56e0713b93e94b7b0837c",
        {"U": [1, 1], "W": 1, "R": [1, 1], "access": 3}),
    (((2, 2), (1, 1)), 4, 1): (
        "37f4d40464c116ac2bfc59b30557ad56acb2ab7457d24226d4ca613295ba5e9b",
        168,
        "aefa07cbdc941a502cce93e52c3e7c981b2f00e60196874e55e78708e9740647",
        {"U": [2, 1], "W": 1, "R": [2, 1], "access": 4}),
    (((2, 2), (1, 1)), 4, 7): (
        "2fc14d74b4baec1ad9e491373fb35b4b921a111a098ac95d939f608f34eca405",
        168,
        "03a2d08680d6cccb1e12bdddef2dcb7444600d14b493910161da232de13e2333",
        {"U": [2, 1], "W": 1, "R": [0, 0], "access": 1}),
    (((2, 1), (2, 1)), 4, 5): (
        "c88d29d55f8356d244be12f316afe6a132c2ef17c5c5299a728da76c6455e5ee",
        1536,
        "6514cbf35c84d65f96e2cfc2dccabb0128fcf06b338f06522830408b2b47014f",
        {"U": [2, 1], "W": 1, "R": [1, 1], "access": 3}),
    (((3, 2), (1, 1)), 4, 2): (
        "f73f3c5062823f9479749ce004a1991b6e30ce247b36548b9893b2a48973422e",
        2688,
        "0d44324487afe7385124e237a380fe761f079fc3361762548f0f5fec4cd0b07e",
        {"U": [2, 1], "W": 1, "R": [0, 0], "access": 1}),
    (((2, 1), (2, 2)), 4, 1): (
        "70b84bc929fa4349d23c2a0222c6571df9ce51af43e9ab748a39e9515a8aa710",
        2688,
        "95198e458265993bb0c99f60fad6bb2dee997adaa1adf267305a7aadc22d1400",
        {"U": [1, 2], "W": 1, "R": [1, 2], "access": 4}),
    (((3, 1), (2, 1)), 3, 1): (
        "67f111f2a719bd1b2cb7e1df3464fafe71f9fb6558e1b3dc9dd110e8124217aa",
        3072,
        "8376d76048f4575a5c9dba4a979c2b57a2bc65814e8e48efd4bfe04f7eb17503",
        {"U": [1, 1], "W": 1, "R": [1, 1], "access": 3}),
    (((1, 1), (1, 1), (2, 1)), 4, 6): (
        "a5b9ac87f358dc4736d242cacf6ade828d98466437999d09459322975ceaf146",
        2688,
        "982a8a7c5ba645d1f04b773e4daae0ceec37e5825b3a89ac4c7e6fa7414c23e4",
        {"U": [1, 1, 1], "W": 1, "R": [1, 1, 0], "access": 3}),
    (((2, 1), (1, 1), (1, 1)), 4, 3): (
        "e7c7da6d1ddbc4c7f0e08d4b21bf85b94a6b1bd4bdad8f85115c36bb2aa66987",
        2688,
        "143318d1058a86ce862468abd18734cd852cf90031c09f9d919bd2ad24c4718e",
        {"U": [1, 1, 1], "W": 1, "R": [0, 1, 1], "access": 3}),
}

# Per case: the digest of enumerate_conversions' stream, in the order of
# the two-stage walk (M as N . rref(G_F), N's columns picked ascending).
ORACLE_STREAM_GOLDEN = {
    (((2, 1), (1, 1)), 3, 1):
        "674f837770302b44b0e7d999dbbe79510bfafb418e0b40e85747616bfbef536c",
    (((2, 1), (2, 1)), 3, 2):
        "80b3e304eabb04b7bfce86984dd60ad2cd71495def909f3813b8af96c833ffa3",
    (((2, 1), (2, 1)), 3, 6):
        "194b3105e410d14887f0ce453616b916e80e5a8bbdbeafdb6af981544152de6f",
    (((2, 2), (1, 1)), 4, 1):
        "6d2eb1392dc2c5782fd067cf0d1e055ed5655aae5b229717ba8cab72d49d4967",
    (((2, 2), (1, 1)), 4, 7):
        "aba80ede3bbd18112d38a7f3a76e409cd9538e51b3a89b2e2868f455ccdcc4e2",
    (((2, 1), (2, 1)), 4, 5):
        "9c7292a212cf4ec1da1b6f400c9ffe918c541f69299cc51047d3af79122a823e",
    (((3, 2), (1, 1)), 4, 2):
        "22ffe846a74a3fbce8bec37b9ead480f5541f8577d57e311996b4bfaf318e777",
    (((2, 1), (2, 2)), 4, 1):
        "de78efc6d90dc1040720bedc09e2db3bd86a04d1f2e1279e6da491b1326b645f",
    (((3, 1), (2, 1)), 3, 1):
        "921df9a7606d52d29266999f14cf0d7c5e1de33070936cfc3c972c76afe31a34",
    (((1, 1), (1, 1), (2, 1)), 4, 6):
        "e2b9dfd514ee269a01a8a36dc36ef4aaacb04d55c969cae596178bfe0b768477",
    (((2, 1), (1, 1), (1, 1)), 4, 3):
        "2d6369387d2fd8906b096a7fc6397b84cadbacb9e2a1d1c2aa82eee255bdd638",
}


@pytest.mark.parametrize("m", range(2, 10))
def test_rm_merge_procedure_golden(m):
    for r in range(1, m):
        assert merge_digest(rm_merge_procedure(r, m)) == MERGE_GOLDEN[(r, m)]


@pytest.mark.parametrize("r,m,depth", [(2, 4, 2), (3, 8, 2), (3, 7, 3)])
def test_rm_merge_chain_golden(r, m, depth):
    assert merge_digest(rm_merge_chain(r, m, depth)) == CHAIN_GOLDEN[(r, m, depth)]


@pytest.mark.parametrize("case", ORACLE_CASES)
def test_oracle_stream_and_pick_golden(case):
    assert oracle_digest(oracle_instance(*case)) == (
        ORACLE_STREAM_GOLDEN[case], *ORACLE_GOLDEN[case][1:]
    )


@pytest.mark.parametrize("case", ORACLE_CASES)
def test_reference_stream_golden(case):
    stream = reference_conversions(oracle_instance(*case))
    assert stream_digest(stream) == ORACLE_GOLDEN[case][:2]


@pytest.mark.parametrize("case", ORACLE_CASES)
def test_oracle_stream_permutes_reference_stream(case):
    inst = oracle_instance(*case)
    assert sorted(stream_lines(enumerate_conversions(inst))) == sorted(
        stream_lines(reference_conversions(inst))
    )


def test_rm_code_is_memoised():
    assert rm_code(2, 5) is rm_code(2, 5)
    assert rm_code(2, 5) is not rm_code(1, 5)


# Y files for `verify` beside the worked example's valid one: rank 0; full
# rank but a wrong row space (the new symbol reads x3 instead of x3 + x6);
# a width that does not match n_F (a usage error, so nothing on stdout).
VERIFY_YS = {
    "zero": BitMatrix([0] * 6, 5),
    "wrong-space": BitMatrix.from_columns(
        [1 << 0, 1 << 1, 1 << 3, 1 << 4, 1 << 2], 6),
    "narrow": BitMatrix.from_columns([1 << 0, 1 << 1, 1 << 3, 1 << 4], 6),
}

# argv -> (exit code, sha256 of stdout); {gi}, {gf}, {y} and {y:<name>}
# name the worked example's files and the VERIFY_YS files.
CLI_GOLDEN = {
    "merge --r 2 --m 4": (
        0, "4cec87e6d88d07787d0e9dcd621260dee8a2488990d4d15cb447cb8261770186"),
    "merge --r 2 --m 4 --format json": (
        0, "172e1f4cb93f991346bae8e5332acffb6b00c173bd5ccfa10fba5c6bd56a53c8"),
    "merge --r 3 --m 6 --format json": (
        0, "d5a3c0eb61fb227e16fab081edca73eab625f10e4acc15573e40940565a268fd"),
    "report --m-min 4 --m-max 6": (
        0, "bab41c37e24bd3a6627de820a24f25f7ca237bb52192b77d6f46773c82d1894b"),
    "report --m-min 4 --m-max 6 --format json": (
        0, "3e5c7ccc188020fc01a1d429eaa8614330fb5806539f3d6a4b1855ee8f49aa19"),
    "rm --r 2 --m 4 --transformed": (
        0, "591f0b233d8d0861a8440e833a27557f1327c4ca3854d5d3e880a16c79a13763"),
    "verify --gi {gi} --gf {gf} --y {y}": (
        0, "6cd1319c28aebcaaa32f1bc4ef41914d8d81412b8b0c44156ea791fa21e3c7f4"),
    "verify --gi {gi} --blocks 3,3 --gf {gf} --y {y}": (
        0, "6cd1319c28aebcaaa32f1bc4ef41914d8d81412b8b0c44156ea791fa21e3c7f4"),
    "verify --gi {gi} --gf {gf} --y {y:zero}": (
        1, "0464536588a95c6dfe990673cca89ad33603e31b6484a487175c5aa48ace3b35"),
    "verify --gi {gi} --gf {gf} --y {y:wrong-space}": (
        1, "0464536588a95c6dfe990673cca89ad33603e31b6484a487175c5aa48ace3b35"),
    "verify --gi {gi} --gf {gf} --y {y:narrow}": (
        2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "rm --r 1 --m 21": (
        2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "merge --r 1 --m 22": (
        2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
}


# Further input files: codewords {x1} and {x2} of the worked example's
# initial codes, a non-codeword {xbad} of the first one, and stacked G_I
# files with no #blocks line ({gi:bare}) and with a row that crosses the
# two blocks ({gi:dense}).
EXTRA_FILES = {
    "{x1}": "1 3\n101\n",
    "{x2}": "1 3\n110\n",
    "{xbad}": "1 3\n100\n",
    "{gi:bare}": "4 6\n101000\n011000\n000110\n000011\n",
    "{gi:dense}": "4 6\n101000\n011000\n000110\n100011\n#blocks 3,3\n",
}

# argv -> (exit code, sha256 of stdout, sha256 of the file written to
# {out} or None when the command writes none).
CLI_FILE_GOLDEN = {
    "apply --y {y} --inputs {x1},{x2}": (
        0, "711cb6b1ea1c66e008ea2ebcd2c3d0b0368f5ed62c8138d0114c559380e2f18a",
        None),
    "apply --y {y} --blocks 3,3 --inputs {x1},{x2} --out {out}": (
        0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "711cb6b1ea1c66e008ea2ebcd2c3d0b0368f5ed62c8138d0114c559380e2f18a"),
    "apply --y {y} --inputs {x1},{x2} --gi {gi} --gf {gf}": (
        0, "711cb6b1ea1c66e008ea2ebcd2c3d0b0368f5ed62c8138d0114c559380e2f18a",
        None),
    "apply --y {y} --inputs {xbad},{x2} --gi {gi} --gf {gf}": (
        1, "d0575b27d2bf5c182d019e1fa1576baa9b2b8b252b95fc653474d4cde2f878f1",
        None),
    "oracle --gi {gi} --gf {gf} --emit-y {out}": (
        0, "f6f27f71dc2bc7e48181dad6a1d3e96cccdab3c9a11e167e99c7b426c3d30824",
        "e9cb7dea0118bae4bdfe140033dfa6b8afc896308651cc649861767c67ddef14"),
    "oracle --gi {gi:bare} --gf {gf}": (
        2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        None),
    "oracle --gi {gi:dense} --gf {gf}": (
        2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        None),
    "oracle --gi {gi} --blocks 2,4 --gf {gf}": (
        2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        None),
    "oracle --gi {gi} --blocks 3,2 --gf {gf}": (
        2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        None),
    "info {gf}": (
        0, "fb1040a783cb0b2495afe3f2960b870fc9c0f61c2271e815e49adbfcd392262d",
        None),
    "bounds --nI 3,3 --kI 2,2 --nF 5 --kF 4 --dF 2 --dFdual 5": (
        0, "9e1eb5e5a1084e00550c8701dd170c1d32a4c24aeae8c378674a39f30b17bbc3",
        None),
    "bounds --nI 3,3 --kI 2,2 --nF 5 --kF 4 --dF 2 --dFdual 5 --format json": (
        0, "23d6fd0b413d85cba3d3098ed0075c8610f67d7d89a438101bd8e368995302a6",
        None),
    "rm --r 2 --m 4": (
        0, "e3a4f9be24304b056482ea5e14ca8f8072e4c3d58097e22b10ebb666e3c77e86",
        None),
    "rm --r 2 --m 4 --out {out}": (
        0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "e3a4f9be24304b056482ea5e14ca8f8072e4c3d58097e22b10ebb666e3c77e86"),
    "report --m-min 3 --m-max 7": (
        0, "ced5485b87c2fc91ee4a319e2b561e2b689cb6ed2f16ea06b58559e49dfc379e",
        None),
}


def _cli_argv(cmd, files, tmp_path):
    gi, gf, y = files
    names = {"{gi}": gi, "{gf}": gf, "{y}": y, "{out}": tmp_path / "out.txt"}
    for name, mat in VERIFY_YS.items():
        path = tmp_path / f"y-{name}.txt"
        path.write_text(format_matrix(mat, blocks=(3, 3)))
        names[f"{{y:{name}}}"] = path
    for name, text in EXTRA_FILES.items():
        path = tmp_path / (name.strip("{}").replace(":", "-") + ".txt")
        path.write_text(text)
        names[name] = path
    return [
        ",".join(str(names.get(part, part)) for part in word.split(","))
        for word in cmd.split()
    ]


@pytest.mark.parametrize("cmd", list(CLI_GOLDEN))
def test_cli_stdout_golden(cmd, example_files, tmp_path, capsys):
    code = main(_cli_argv(cmd, example_files, tmp_path))
    assert (code, _sha(capsys.readouterr().out)) == CLI_GOLDEN[cmd]


@pytest.mark.parametrize("cmd", list(CLI_FILE_GOLDEN))
def test_cli_stdout_and_file_golden(cmd, example_files, tmp_path, capsys):
    code = main(_cli_argv(cmd, example_files, tmp_path))
    out = tmp_path / "out.txt"
    written = _sha(out.read_text()) if out.exists() else None
    assert (code, _sha(capsys.readouterr().out), written) == \
        CLI_FILE_GOLDEN[cmd]
