"""Pin the McKay quiver of D_2n for n = 3..40: its JSON and its dot text.

The quiver's adjacency is the matrix of <rho_nat * rho_i, rho_j> over the
irreducibles, and its divergences compare that matrix with the drawn
affine-D diagram.  Both outputs are pinned together, so a change to how the
pairings are computed must leave every entry, every flagged loop and the
rendering byte-identical.  Each digest is the SHA-256 of the JSON text of
``{"json": q, "dot": quiver_to_dot(q)}`` for one n, where ``q`` is the
record ``mckay_quiver(n)`` returns.
"""

import json

import pytest

from dihedral_mckay import reps
from pin import check

PINNED = {
    3: "56e36f37290bc38743f7fd96c37b52f60d79a415e0aa28f39494fc2897385cd7",
    4: "6ff4b3a44eea742c466a64f0e2ef7537735ad8ad0bbd3ad9acbe3066d90211fc",
    5: "34cb0aa7c69113d5075b8b5445428bc06b99765ab3a80ec0414af4a157a7cca0",
    6: "f9665d021831af4060121c1ba28263d87dacc37ab955212d8ac3d144611bad7a",
    7: "ee5ecb6aefabe1289673d8161ed01ff595b354cd3c240fd25ff28cc25221df0a",
    8: "98f66962e05b240f3fcdf1f2ce5d1529c801ba62987064dc0c88d5d5e55a1cf0",
    9: "d244841bf4547ee2cdf1e0dbed2568e64655c24fd567032e2490d04b75f68ce3",
    10: "37a41b37cf87b4571d686d02fda2d26093a3589181b4b1e2e7718b3bfdfe239a",
    11: "1403d70490449abde2260a7459836bd8ee912b4521ccdd0b5e91eb907a72a2ca",
    12: "f34ddb0e71ca1b5f0636f381ed46e31991e56cc9cd6f17c8ca45e29fc76afede",
    13: "9733d6f76b36eea0dc0091b480c016e20b0000bd1a53a94a37dd522839da6b92",
    14: "3d899f2fc9541884791bd65f473812c0dd77d0371d56f3f644ae4b84de4abd3e",
    15: "3bb4168cc33ef966537a986545cf8bd0a2199db86addbaacaa4d5621b8e22542",
    16: "674745001e0b80bf508bdc1f028871a30ccdd530f12b2c8b9f54235b19c17029",
    17: "39b414bb61a91be0b1fd2cd93a2ec54ea297391163b17a1f1457b64c79104c5d",
    18: "92c9c6207d57b4d0577a56f6ecf6dd942f54840f938acc8b89560bf0ade86e58",
    19: "cdd19dbbaaf9264302247a64d5e732d74919f0b35d9288ee3ecf363769818dd9",
    20: "cead6b01a71fc8bf361d2684a6f382beb439fb8acc8a6277d280b7b76a97fe66",
    21: "219525ff6f7413d9c98d6da184a692f12926f938e15c6011e580ef1bcc8739b2",
    22: "ac5474af1d3b3b1a9a91079830c403546f084ee00c2efbf75d187a77af4c9519",
    23: "cb4296bbe858483079ee92acead8a07f54dd3606b7a60c3b0bf3b9d205c25842",
    24: "ef9b04f570ac34e923599c74fb3f14df1560d97b680ba7931859c3c0d96a3988",
    25: "e113e13fb2ca4cfd8055e066e6831150a4408d9b997534829b01dc13b54e3d35",
    26: "0a7fbe87de265a26628a6263af49ec239c9a8d4a5de22e96a504ff6585a28424",
    27: "d747ec389b496b6dae0bcda288238139e53e897daecc55270e8ff5a2ab77ccab",
    28: "4345b1b7f5d9d97f2d5c0b1974e8cb16b813d8f1e92afe666419d0a5f7fa94c9",
    29: "84a6e17851e581c6b389154057fec142bca75bb0b56da024b66c5a64c8ff9e74",
    30: "73362d56e7be9a9bf9820bab206e65cffebda5ddf2c6ced6d7bf794fcbb3765d",
    31: "037f785132ea9640ddd9b9d9e3a14106fc58652b0c4ec37bde8d8ced8ecaa73c",
    32: "29a4ba28c1bf00fc26cd1cb5ce1e7048fafe64e8ce8bc6b3e13c0aca79bc0550",
    33: "dc093e66cc277604bb4b9a1b4b695f9c809ba55ffec2796ff696d68487804943",
    34: "61a3e112eb20480bfa7270db8fb214aa2cdb31fb11758ec266eb67dad493e15c",
    35: "62abdab12282bb4cebb8e32387e16c883db50986e9e2b888ea93da49baa0ec6c",
    36: "872fe7a76de175e85886725b266d64c23ce36a6db959868a8645f96bbfdfec02",
    37: "443eb76b3c6f3e9d1d6410df94fb4967317740010f4b74c798310aef7f647ca1",
    38: "b94776cf4f9bf92ee50e9849195bbb2f147411120ae43f043c873ed3802243d5",
    39: "5d6aadf43f84da84ceb31fc7a5320a73b5797d1a1622631ebeafabc94cc2f5ea",
    40: "a2e943184690dec55381f3cd978c9e185e4eaacf8a84d70b3e6e30701a441486",
}


@pytest.mark.parametrize("n", sorted(PINNED))
def test_quiver_outputs_are_pinned(n, tmp_path):
    q = reps.mckay_quiver(n)
    text = json.dumps({"json": q, "dot": reps.quiver_to_dot(q)})
    check(text, PINNED[n], f"PINNED[{n}]", tmp_path)
