"""Pin the maximality verdicts and certificates of the log pairs.

``is_maximal`` scores every candidate blow-up center of a log pair; its
certificate lists each candidate's name and discrepancy.  The pin covers
the fold, the quotient pair it dominates, and the fold blown up once more
at each recorded point and at the generic point of its first boundary
component, for n = 3..45, and the result of criterion 7 at its published
range.  A change to how a center is scored must not move any of them.
Each digest is the SHA-256 of the canonical JSON text (sorted keys, no
spaces) of one n's list of ``(verdict, certificate)`` pairs.
"""

import pytest

from dihedral_mckay import intersect, verify
from pin import canonical_json, check


def _verdicts(n):
    """is_maximal of the fold, the quotient pair, then each one-step blow-up."""
    fold = intersect.z2_fold(intersect.an_chain(n - 1), n)
    generic = intersect.Point("generic", {}, {fold.boundary[0]: 1})
    beyond = [intersect.blow_up_at(fold, p) for p in [*fold.points, generic]]
    configs = [fold, intersect.quotient_pair(n), *beyond]
    return [intersect.is_maximal(cfg, intersect.boundary_data(n)) for cfg in configs]


MAXIMALITY_PINNED = {
    3: "153a2033175fcd01b15a94138b80855d154340f5c452ffb572787774b711596b",
    4: "a5952cad431077070fc344a792519cd0c465b5a6242a81d9e70ae0357962d612",
    5: "4755e65dd44c9316220202975f926554208ce2bb0978fed6e1b9d3ea5a2a59aa",
    6: "98f97992985c0d7c43d64a3b060cbd93e821723209ee3f0e7c3a0f153d3cde9e",
    7: "5ec9b0040ef22c00cbc4f753474c85e1a17c3a47a1a55b4d2e18c398c05f9d0f",
    8: "526b20178604d2fb4481aed1d89f05f655d756a6dd68aecff08106642b9616ee",
    9: "dee17c1cf42d91de87fd1fa40ff58424b41de67d0ea753c3f06357b16bd66999",
    10: "29371c73c87f4f036d8036e18a711050fd4b900c0bb38c4aff39d5c888049b2b",
    11: "2cec4bf871c0a92110dd76f2510d575e7412188613e7ad43a3c72b1237a19da5",
    12: "253fe7674cbf90b64f529796e9b054e2769a5d0a86546566110ef8eb86656968",
    13: "898ae6d2707cacdc92458bc8d5995f3e2323fb8dd091172cac90b12faf739d01",
    14: "2cea8a3a40f5b3a3eb7ee0956dbfa443256850f855133f3303c9d1a7f95f8381",
    15: "0b16b0af440716bc6c81b47aa24b46d7a955da5e9b86bc11a598f6554c131da2",
    16: "309fdf398240fcdbde050cb4eac85f1d6fe416677c7bff2ba49f2627ee787683",
    17: "0bab1750845708c5df8bd6f6132557b3d1415aba8fc96a62a06203858f4e328d",
    18: "a842d53532b9da5780aa388d86865cfb7fc2a626f46d98970268fde4757f7660",
    19: "4aec5fee2b37990083c7d685944af65d36553bdb4974b639b4ae0a64a4a5e01e",
    20: "9367bd7dda5c2d988a7416bc17b7d0117bee6fc48318915e73c1c0b7583aee9e",
    21: "9985ef727ce8c5f52e36e647ba902a111b178069c235e12d104a5e1a60949529",
    22: "a80c959af68bdbbae27070c2525bcb81dbb39780d97e4e89ee737dc9d6dce692",
    23: "1ae24fc2f9aee5a159820de5109995e6f906a9d2c822f62434502abdf41ad928",
    24: "60af9ac816fc76a63598250d5d3dd676a1f7a8059ef6693e20fb43162d61786d",
    25: "9b4390af8d57555e97e3f1e012288b70fc1f431c65dc0b5a7a0db869839a767e",
    26: "e6aabade70b554805f188b00077e243cc5a7357c43150f568c7591eeb65a950d",
    27: "171e39e5c42d55908eee1f12a93cc3c6596e6bc160eea9fa14a228d63a4a14b6",
    28: "3d5a29b7d18b655526767e8bbe2a423e744e6213e44aa7b5ca0a79abbfd83916",
    29: "1b6468e79a0ddfb71f38bd2820f75196a90789f3d22881c3a112d82393e16023",
    30: "b260fa2b7aa5cc5aecd1e5e70965da86889686acb29ac82c302a95355d5147cd",
    31: "072a1f7ab6e09d2258460fc3bfa6e0362e158811e6c13645f6a1f5866fac04ba",
    32: "cc6ceb575d8df51eaf1390a8e801b833d541d504f916bb92c7971cb9b4d1b249",
    33: "83c03825caa3a5cbac0ac1117147934c7091dffcc5422b80b0a84fc01de2ddde",
    34: "b045529ec38df8cd0e00f2a966804288aa71e0eb1c096ca8378dc93d97f9b7e7",
    35: "c74314542f2ef65defe5861388b54035c9d2e4ac79009d2b313f1d9176abfaf2",
    36: "554500acf9cb866c2490edc4a460b9dfbdd2fad56baaa33e2c7095e4f11ab95f",
    37: "02efbf6c8966f61808eebcfb62e6e64a3f462c376cf15d2ddf84cfb3261c6e13",
    38: "e3d2556dfe2aa39596eb3729378a912a4b0bcf33cbdc04febc806fb5ffc58543",
    39: "0275ece1630aa6be6384ed217b23aee9587e5372be0285ea7ca64699d50f3ea1",
    40: "4f6f54af5627c46ac166ca6e9a65f67413b45cc7eb2d3d791c5ccfa355aeaa75",
    41: "10e2367ec3ddbdab664c5ffd7977b438dd07a51fa4c83f885fcacc0032bb7686",
    42: "1f46a6a102ac5300b2ba142d8cff9e3df06958cc65fbfabce9b5e2e0b855508c",
    43: "14e4116f090cba13aecc9ad7fea4fa2616da6bf576782c81fd93bdf1b164d006",
    44: "c1a3fbdfaaf94b260894bc66aa27a58807f0c6cd01e90f362d84fb3d607f2e07",
    45: "629dca507a3fec0000efe1915c21e17bc587b9f67578bee2f71378bc9d1fbafd",
}

CRITERION_7_PINNED = "855f4bb5d99440dcf8f000204cbea5a3e05c9942c9d17a6a09e1b976fce84be9"


@pytest.mark.parametrize("n", range(3, 46))
def test_maximality_certificates_are_pinned(n, tmp_path):
    text = canonical_json(_verdicts(n))
    check(text, MAXIMALITY_PINNED[n], f"MAXIMALITY_PINNED[{n}]", tmp_path)


def test_criterion_7_result_is_pinned(tmp_path):
    text = canonical_json(verify.criterion_7(n_range=(3, 20)))
    check(text, CRITERION_7_PINNED, "CRITERION_7_PINNED", tmp_path)
