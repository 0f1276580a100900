"""Pin the chart gluings and surface pullbacks that the atlases of hilb give.

Each digest is the SHA-256 of a canonical JSON text (sorted keys, no
spaces) for one n:

* ``hilb_atlas(n)`` and ``surface_atlas(n)``: ``adjacency()``, and the
  ``transition_exponents`` each way of every adjacent pair;
* the same for ``build_flop_atlas(n, stage)`` at every stage of
  ``stage_chain(n)``, for n <= 15;
* for every k: ``surface_pullbacks(n, refdiv_curve(n, k))``, chart by chart
  in the order of ``surface_atlas(n).charts`` (strict transform as text,
  sorted orders), and ``refdiv_data(n, k)``.
"""

import pytest

from dihedral_mckay import hilb
from dihedral_mckay.charts import transition_exponents
from pin import canonical_json, check


def _gluings(atlas):
    pairs = atlas.adjacency()
    transitions = []
    for a, b in pairs:
        ca, cb = atlas.chart(a), atlas.chart(b)
        transitions.append([transition_exponents(ca, cb), transition_exponents(cb, ca)])
    return [atlas.name, pairs, transitions]


def _atlases(n):
    return [_gluings(hilb.hilb_atlas(n)), _gluings(hilb.surface_atlas(n))]


def _flop_atlases(n):
    return [_gluings(hilb.build_flop_atlas(n, stage).atlas) for stage in hilb.stage_chain(n)]


def _refdivs(n):
    out = []
    for k in range(1, hilb.half_index(n) + 1):
        per_chart = hilb.surface_pullbacks(n, hilb.refdiv_curve(n, k))
        pullbacks = []
        for chart in hilb.surface_atlas(n).charts:
            strict, orders = per_chart[chart.name]
            pullbacks.append([chart.name, str(strict), sorted(orders.items())])
        out.append([pullbacks, hilb.refdiv_data(n, k)])
    return out


ATLASES = {
    3: "23242da84f0722ca357acbc9c0d5ef7d328b9c2d4599185de51a267516e7c754",
    4: "deefa02edbca264f35176ddff15d8bfe42dd9735dac10fbf8464140ed00cd6eb",
    5: "95158eaf02208172473b23f2539f2aabc9baf250964f438bfafe03c64a311d5a",
    6: "d16b9e450e993cd515ac9c7723a81c4db2414554b64731beef887db92893c31c",
    7: "a7713192f5218e977c269f5b55e08cbb62787ab1873016c950d88d14564ac21a",
    8: "b9b6f8bc747af32d0fea1bcccd44a3a8a19bd1ae8f88fcd92e2a9a1ea5e59bd7",
    9: "111a64d6db4a793a2a2de8923c5208c7246151bc38caf82dc710aca27fd1a2ac",
    10: "7ace96c741dba984b4520ee59077d4bbb791941ce7ebc4dfc7a25c47bb123841",
    11: "ad58071cf1fd4c9730d9efee0da18d634967ed3928a407dee7904d63754245a9",
    12: "580186b16217411e17d149e0187caed8930a0a5d81282a24c89bafc40a313437",
    13: "8ec1d6568fc28602c0d96b12a8931db88e87f79df8669d1a6696dc813ce7270c",
    14: "01d8de32e56b97ffdd163fca8d7b70a9b868e258a12904c957cafe898cce0778",
    15: "20e8015de7c519d36cf8bec8166eb12653fb667d094d4ee62a501df79ee09e3b",
    16: "411e23e2022c26a459debd87b3b215f4d3a6a8cde0f38de12f76a413237cb3d8",
    17: "225f31223c8f140c4403eabceec136e90862d99e2f0d4c1956e0ea5b226db3ee",
    18: "b6073d0b807f6ddc6492b49b9eca2bd82c02ac3b06b8edfe8751ffa1ab085ca8",
    19: "44015791809d8b8a51c9c40cbe85734291d28224c5544d6e04e58263d4a334b0",
    20: "72d37202729f2bf1b3e04661b0805719bbdb90015783919825eb2b5ead7a2d01",
    21: "6abb9b8bb4427c9242dae873f5aa2be1d7d5506efe2ea25b7fc6c91c523fedeb",
    22: "63bbee2f4ffe2c7a7ccdf7e1548198a9f2192b89603b6cdc89fd5b9e4c03aa1c",
    23: "74a0069c7f6eb847b522a1c03a7973e406102072a300b85514cf5d9512add96d",
    24: "847ca244b87f54d8411cee28fe14a5b145bcbaae6604aa6a0c2d06d07208ea3c",
    25: "f14f4ff9fcadf64590c030dd5ceb4ec2932294e1a806b73d8c7e236537477398",
    26: "26161553c9d6e24be8a006fc45dbb82d05bf089ab8469f0050ade680dd2c9daf",
    27: "6893985b50d690972295b0d889375a9302be6e858faceb2798a62d933ef6c0df",
    28: "3bba3423b6e61ec9991b40582ab8afdacb373bb765a6c22daa3e20c7e4fbb765",
    29: "91dae7a010fbeecc186daa704ec56a807aebe82134d00aa328b3de459d0e5faf",
    30: "be097fa2ab58f61efb0ccd3d200c3bed46c1f3d53e0028ba404ac300f3065715",
    31: "c5d605362fcdfbf4beab7b6754b88803c98507954111c901ea28f5f7669f0103",
    32: "850956a6b446bbe78d68f4a284a892b10e37fb32f372c1076a381c7f423b23b9",
    33: "5c5597c909b238906bbc255d37238e13b650e82066ed1c4ca89d4cbbcaedfd69",
    34: "31371c9b7aa4b6533623318193ca6c36134ca83a89d624ba0cbc0f9c66536a44",
    35: "0f331db00cf7492360da5e7684f5fcf034b712f2ffde0c19a83e2dfee84085f3",
    36: "22523b825aa5227935f355a0676a8142862b78da10a2068f7afd322a050a9c65",
    37: "bd8357db68c14b6afefbdfe0c3483cb9c8458f569efb33bea51f645bae6124a8",
    38: "2c15095fe1babd6212dd3768505856c67ec4339d133f1a17d568eebac978bd8e",
    39: "761ac905979538018ff8fae6a1ea3922fd27a25efc8a60b47bf4208a17160394",
    40: "69dcc2448b22884a4abe9975278d94f1497a19921f55fa8f3826cc54609a8a0b",
    41: "0f14f16bedeb18478ccd5f858c64a9caa1d3b15bcef76c2840e907faed453e0e",
    42: "67654a8ac91f56dee4279ce8cad13ba928d4e9a2348e88e52d7c333f99008f5f",
    43: "062c1c5f181fd3462c676e4f3b05c0c7336bb4a89896050b98edc7867362daf9",
    44: "131a6efc5102bad361f13d137e35d7e6c0035cb319b1b9bbae5f5ccf41233927",
    45: "95587f2ec14bbd6648137ef09d8f066de7dac615e384b69b23e1febb969f867c",
}

FLOP_ATLASES = {
    3: "d3afe1093993e4a2432d2f148d45e36d76322adabaab8f39b221a1d9e4a23b6d",
    4: "18fe5ca6c348ec6826cf22cd303c53471b768c85a60dfb6335c2ab08a4c94872",
    5: "fdf6b119f2caf05d268a7752618b9e1c8dc6a8d13bd80c1e3d6fb90433bedd69",
    6: "09369e83175d079e4f1cf9eb8390cbca9aaf221aecba77a811cd55066f011f96",
    7: "63f8a7f0435fdbd4a6483188fa49ee2e91f8a3120584edf8382cddc0c85e9843",
    8: "1740c5bafbb2604b34765063c4d2d6d86ea093e0f6bb9002dbf987de81c0f32e",
    9: "a37f06f0461bb67d786950d532a314b1d4e4240e434e1bea3e9958637b00b5c7",
    10: "2298793dc863366086dda942988e141cc35ae29738c9bfeb6158b22e16d010aa",
    11: "9e761c80f484e76215f80e0d952a67fe9959e52d77e104eafa4ec421f273dd40",
    12: "a7b1bf33672ea7058c9325cb9193ffded434d7fdbeb5f332440fc6708924cba0",
    13: "9aa47a26e8d03cdab4701e9b1566633090b416cd8fa9e73bea83c43f446e3568",
    14: "3594e6a3234721d6343d9fdeae8ce9ca15a9e842acabc3f83fd5dce62dca230f",
    15: "910e1ffce02c739ac187073b1925a12433fc11c15cf345aa163a6d9d374c6692",
}

REFDIVS = {
    3: "c1de674d585fa1662fbebb0c01dc8eb7cb329292c8ce02e78e6d912e620fba19",
    4: "5f1ff9ac87b2a0a4c8af44c801a50e3952aa455bee978bf4166502d423381b68",
    5: "1490ff294172009ca49b115ad0a11bd37d9e944b08356f5f045397b0b1477f98",
    6: "e087a8748999c45f130c9b77bbf3cc4cf3e9cb3d37f7219c62822addf6a76605",
    7: "ab987971eb789607e9659861acf080cc2436af3fd92574b0a1d44614cd27d216",
    8: "db1a2594afaeb6b77376fca2dd3cce0dff77d6469152b4fc3b9ac8ceeb727033",
    9: "fb9a706ba5f2be775130c7619b133174c5f07cf56256c00f782f343bd4c2b60b",
    10: "d2d251c768d095047eaddd29a5d1da577866e4838682c8311e33e71b5d2d0bf1",
    11: "61929039dbcb8015b5b150af4a591c5e416dceccb84e87bb11fedee00ccdbe40",
    12: "a50efa04526f4c9e8d6da9d44e409e0e0fec0f5d21b75e386afab598100f422f",
    13: "0bb307efdef93546727b8faf172c424eb9a19ec09828a75e9fe43a63303d3699",
    14: "6f103123a3d8e0899f6eee7583a4c4d40068759e4d81637de59f6aea56c44bda",
    15: "7d3f314e5f2f5b35e78961cee6fcf60e6dc972d5ec6bfdc1b32cabac80cfe021",
    16: "9814994c6af8315daa8e88106cc47ed37a3ae537c122b5e783cc99b08ea5bcf4",
    17: "8c7a46c505e0fae487cd7dfd2a6b634b37571df8cf981afa495651434799fddb",
    18: "d956a265a515d20b039665326e221c6db99b97942961bf174ba21016c06c9c9f",
    19: "3665334f2e38a0e66a82bc94783ef48f461bdff2e210d210be0b37e2d40778a3",
    20: "5d80a22d31e31e6ae74daac1265773a86a76dc93fa4be05ed278fdfceb64810a",
    21: "9a23781f7f2e2d8188cd5d4307a7d712130ae453652f5c96b227b2edf19d2c60",
    22: "ca250553e66cd094915b6b57c6fe4104a62f757ae9956f84b645c426ccd05c26",
    23: "f3b59c62ec1ce047abfccc03f03bc7dbcf51403c1a2351c76c51a6abf2c0fcf9",
    24: "7ae4fd1b0d2c4f18bf8cab617f40fab0c0e452c00183949c1bc1d2e167c0d864",
    25: "399ec3731da43cccbe8610c35809b90865b61bb247706be5bf618e5218c1ebef",
    26: "25471a679b1b291718cfb296dec2cb94ac630ca8b8e77e5094fde51d9c39d655",
    27: "78192ee0ae9d79b27eb400da9bdcf80648217e355053665d52548e3ac528300b",
    28: "1556f20a3631d799495fb0a65a7853ae97cacd25bbcd0978eedfa8af87ca5354",
    29: "b9c8e6a85d4aa343c45d227a1d42ad9aa24f5c5736ad34529d5bbcea0996bca1",
    30: "bfc2209e879dca913a7839f4148a3463fa9e07bc508f1f8f7f58d25dc275b9fc",
    31: "6770df8bead230ad0b33843a399ab5d5c4289e3f544d48d704d6da00522f1929",
    32: "dbbbc49f413a825c65a950d8a6fea41f4c9bbc73722f0a974c233bf2b11cdfd3",
    33: "f14d277fd451e2ddf6652789e1dc6873ce45f842fd033d32a437716df937b8b5",
    34: "8cec075030384734be77b62b4c913ed2fe512252aa53d1d78cabf3f058d96631",
    35: "65f20498cff70d1c81d5f01ddde6dced297f6e29d28e89eaa570d0e84fee3377",
    36: "28f78def5276f9e66e9479e385f4765f86ca34040abd3648def4b85eb2635832",
    37: "e21e3a5a3330de6ae60f1e1ff61c2a82c4c2b8f7d60799ebd3ee1a16dbb6e4dc",
    38: "2b30ba8d3162c036d4c6da5f6449918e28defe95a7eb0db463ae944a6a97d944",
    39: "a5b17141c7fd5ad97253f51e894e5a908479e82c0fb3fca426e058ea2cc29446",
    40: "d2a3cc3d7f9b974b96480adbd44b5dc79a88222fbeefdcd13cd578ce6f16eb6d",
}


@pytest.mark.parametrize("n", sorted(ATLASES))
def test_atlas_gluings_are_pinned(n, tmp_path):
    check(canonical_json(_atlases(n)), ATLASES[n], f"ATLASES[{n}]", tmp_path)


@pytest.mark.parametrize("n", sorted(FLOP_ATLASES))
def test_flop_atlas_gluings_are_pinned(n, tmp_path):
    check(canonical_json(_flop_atlases(n)), FLOP_ATLASES[n], f"FLOP_ATLASES[{n}]", tmp_path)


@pytest.mark.parametrize("n", sorted(REFDIVS))
def test_surface_pullbacks_and_refdiv_data_are_pinned(n, tmp_path):
    check(canonical_json(_refdivs(n)), REFDIVS[n], f"REFDIVS[{n}]", tmp_path)
