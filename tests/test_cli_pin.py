"""Pin the command line: every --help text and every artifact at n = 3, 4 and 7.

The golden files hold whole outputs at n = 5 and 6 (and two subcommands at
n = 7); these digests widen the net to every subcommand in every format at
n = 3, 4 and 7, and to the help of ``dimckay`` and of each subcommand, so that
a change to how the parser or the emission is built must leave every byte as
it was.  Each digest is the SHA-256 of the UTF-8 text written to stdout.
argparse wraps help to the terminal width, so the help is taken at
``COLUMNS=80``; its layout also differs between Python versions, and these
help digests are those of Python 3.11.
"""

import pytest

from dihedral_mckay import cli
from pin import check

HELP = {
    "": "2fca4ab3d9e45eab41bbdb9b1cf93f7f3b6161b29f4c4e2e253f9065152251fd",
    "chartable": "05b21c8f5238b027c9124066bf59211a8250bd8b13bc066ffcaf3700cb09bd02",
    "quiver": "533ca188bbf995a70a9ae130b28076bf644507ac5f6a0d3f7f2c6ea1261a23c0",
    "hilb-atlas": "b9a1f886404c0fc889863937d48ce1636f5b3056a9d77d783cb2ff35c2aa8b37",
    "fixed-points": "3c8798633ea8b6fad3f6e0f28fa60884e4c518935646dbcd7303fcebdaf95c8d",
    "strict-transforms": "933b7584a5f747352d5ab5b74b3e0f4003677e03d1f6c28c628ec22d506a5d16",
    "fold": "01b14beffafc5da638abe32fd339ae488296d290e92ce80253c0845f44e28542",
    "chain": "7ded133da58a1a5d01ca34df75b9862d03518e0a9d4fca66deb66ee2ba3c8575",
    "socle-table": "b9b2bea7c0f8ebdc18c9b81c45ad7efeaf5884d10c30c4da650618a5bb5dc633",
    "taut-table": "f531da0d637034987db8f31f78cbf0c5e2a3c18fe525bbc9af8f22d72824947c",
    "fm-table": "077c6b54062a4b071f2650b3d3f95eb17b2992f9cc8d30ee33d3df3ca1e487c0",
    "refdiv": "564b373fe76e0bc2e1f1ae4c05b4ccada010498bfacd12689c5f4c8855f6ca9f",
    "verify": "355712dbf9f59d2b1931c9d604ccb0036e7c9cd284f49e3e7398890674088444",
}
OUTPUTS = {
    ("chartable", "json", 3): "dddf0381ca9fad80a7077626857a0906e31af0523f5b7edba2c2607cc91b426d",
    ("chartable", "table", 3): "7a58ea11fa7d1a2e7cf31d6f0a6014ed2c0a43b6f95fd6b21b24e150aee3867a",
    ("quiver", "json", 3): "adff101df574f3696b0b29f035d3770228a6b2f808e182cd9184879391b4041b",
    ("quiver", "dot", 3): "2d4b995dd927607681f18d1a6d568bcc54541156c2cf9398630ad905bf7f245d",
    ("hilb-atlas", "json", 3): "54c7aaa0dd9c96fb2d05a33efc4a8023984b68333baf659f7176be73b553b862",
    ("hilb-atlas", "dot", 3): "09f4ffcc84906557918f1378e649c2914fce0ae8ab0dbb772583b6fe530602fb",
    ("fixed-points", "json", 3): "45e844d68cf599fe6ebb9fb17ce24ce7dae7cc03225287fd87341f607e7b7e90",
    ("strict-transforms", "json", 3): "6b896ff6c92a4c98143985de892af5f471938fb14368d043152c612cca2c323e",
    ("fold", "json", 3): "5e75b05bf4f8823e275257e9c0c314876f242d93b2509f7cead51edb7cb7aa57",
    ("fold", "dot", 3): "6a1aa31db97031c386e0408793b415c45edaeaea5a05bff2af9a7c2debbc5163",
    ("chain", "json", 3): "c0eb0e212964b6507318b436168256b910ad87e8b550225046f05efe5f6dfc61",
    ("socle-table", "json", 3): "91834d263943bbffc66cb9c4b9e7354d42c502d339d1c2d3eedef66d74c3dd83",
    ("taut-table", "json", 3): "27ea1369613f847928fb82f12ba0005bbb4f29e9e75661d3d63f3059ce376358",
    ("taut-table", "table", 3): "f882c2784ffa88c3e0244e31da55c6e02e321a55095f9f239ab831e38c4a7972",
    ("fm-table", "json", 3): "c714536a3421856cea7fe4dddb5d75e61a76acd7bee8dcaeba4372fade0523b2",
    ("refdiv", "json", 3): "f026c3c0ab1509a5c1d999d33c1ad51f908c5c7484517b79751737cc6badb97b",
    ("chartable", "json", 4): "5c227e355da5ffd1ee095b11c3cd00b86e09d91de6bb9983d17321584e160fdc",
    ("chartable", "table", 4): "5a95688e80b2867faa9c57f5b75a80a103a5e31665fa3996772b4a89487cb39f",
    ("quiver", "json", 4): "dc3f99402800a98a967d8e3a4fc7bcd74bfc3bf4747ace5c3cb888c09e013113",
    ("quiver", "dot", 4): "69084f63d8df3fed7082832e56508172e6fd7ede2c4fb6170321267b64b071a8",
    ("hilb-atlas", "json", 4): "86d2aacc0fdb1ef757be942ecf13fbd58840f197e8f821962d32c354a4fafeb0",
    ("hilb-atlas", "dot", 4): "2ec244c5ce762a0129c947116c83fc5ed9e23352142ffaaff20a94d47ffc7818",
    ("fixed-points", "json", 4): "4fdb521cc67665a8d380c3ecd0278b3d15a4df4d9a80c85689e5f00878c22176",
    ("strict-transforms", "json", 4): "dca097c98be47f673a3da2b5275ede8c152aa7925fdde6360f0d6504b5853bb3",
    ("fold", "json", 4): "cf511dab1da0c35158e1c18c416407391513187a0fc2b37d30d697c0d8e575a7",
    ("fold", "dot", 4): "8b2e82bdf1896c9e47a7e9e6eef987e9895fb31aea1d2c9061576f9cc904adc9",
    ("chain", "json", 4): "657256d66fd3af7c9940e2c546d58d29739d217fafd7c870fb552af2a8d7e49a",
    ("socle-table", "json", 4): "480d373a49298dc02f4fe71a9a1603e79604e9eee93d4f7fdd1dbd93eca054d8",
    ("taut-table", "json", 4): "d6535f9c3d455b6999749cf35cbbb400dc90a52d32403e3005a9793a806b0161",
    ("taut-table", "table", 4): "440d8f0125b32dab7500548dcd389003c62de5312e5d13a1c0e5fdb137b7d5ec",
    ("fm-table", "json", 4): "6cac5bf958569b04b5924c4d9679b19b40209e262b275407a1714e5e6bfd8f21",
    ("refdiv", "json", 4): "ed22ed1e7f3e653ab7111711853c81ff2a6ad8359d184971ac8fec413eed2daf",
    ("chartable", "json", 7): "d60facdb8da5f18b1ea460b37437a8e79269031fe0f9d77e49122fdfdb2f0559",
    ("chartable", "table", 7): "b2f8f130860e6c436e8c745d05741afe6eac3556f57b4330f0524f8cd91dced6",
    ("quiver", "json", 7): "1af1606a348f5d09e2d4683e31b184d4940a7ee29afec63bad76395467ed379b",
    ("quiver", "dot", 7): "5bd2c921e4e6417c0f399c9048e2cb9197ec52e63b63951347edf6f6c0478c8f",
    ("hilb-atlas", "json", 7): "83a92697593b6423de1d544e67c4869a4fd9824b35580f6f5eba2eabd35facbf",
    ("hilb-atlas", "dot", 7): "4c5a06c7207e2e9a8b0e09cd01adcd32abfc5427ab9bba72eb50fb9843399d64",
    ("fixed-points", "json", 7): "3e3ed4d068e4dd5fe6fb28b0198a4da92bea975849da86bcd10afd7e9e289813",
    ("strict-transforms", "json", 7): "e5a61fe868010fe80eae479e5411c97ae8a6ef713aba30c8a91e7d995bfd0ebc",
    ("fold", "json", 7): "7f8107beb1937a2754c0d861b8b9d32b7ad53646016b079ac680e1fc20ea89cf",
    ("fold", "dot", 7): "39f1390bb71cfc74affa7b3afb44478b20da8d45278d3b31ef39a62ccf698dcf",
    ("chain", "json", 7): "94846d8b7d990b83846fe9adb6968ae5c9211549e8d21fe8ff6a67f6fc11e92c",
    ("socle-table", "json", 7): "b4329385e5e37398323280c8399e48c7f2adb802a281739001ac6d5f7f21e43e",
    ("taut-table", "json", 7): "fcb4878f3f3c2d3e045e6c0cb1cffc9e4f2ea40a9dc59529c69d45c6afc42966",
    ("taut-table", "table", 7): "33b33e64eaa1591542f6630806fe142bf93d4db129f01d70bca4fce2d296ac48",
    ("fm-table", "json", 7): "9aeb0a01b9a6326d4920a04586afbfc7ac60d1d70f488be692187c50b0a8211c",
    ("refdiv", "json", 7): "65852a1ea1a5077e6b4a7b4c97bc7ff4291387acb89657dd230b25005eb764da",
}


@pytest.mark.parametrize("name", sorted(HELP))
def test_help_is_pinned(capsys, monkeypatch, tmp_path, name):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        cli.main([name, "--help"] if name else ["--help"])
    assert exc.value.code == 0
    check(capsys.readouterr().out, HELP[name], f"HELP[{name!r}]", tmp_path)


@pytest.mark.parametrize("case", sorted(OUTPUTS), ids=lambda c: "-".join(map(str, c)))
def test_artifact_is_pinned(capsys, tmp_path, case):
    name, fmt, n = case
    assert cli.main([name, "--n", str(n), "--format", fmt]) == 0
    check(capsys.readouterr().out, OUTPUTS[case], f"OUTPUTS[{case!r}]", tmp_path)


@pytest.mark.parametrize("name", sorted({name for name, _, _ in OUTPUTS}))
def test_n_below_three_is_a_usage_error(capsys, name):
    assert cli.main([name, "--n", "2"]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "usage error: --n must be at least 3\n"
