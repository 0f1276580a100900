"""Pin the socle, top and theta answers: a memo of the pairing must not move them.

Each digest is the SHA-256 of the exact CLI JSON text for one n: the
`socle-table` output at alpha 1/2 and at alpha 7, then the `fm-table`
output.  Criterion 11's verdicts are pinned as one digest of its 100
theta checks: the module, the theta values (the planted class is the
one below zero apart from rho0), the destabilizing class and its value.
Each is computed twice in one process, and the second run must equal the
first.
"""

import pytest

from dihedral_mckay import cli, constel, verify
from pin import check


def _cli_text(capsys, *argv):
    assert cli.main(list(argv)) == 0
    return capsys.readouterr().out


def _tables_text(n, capsys):
    texts = [_cli_text(capsys, "socle-table", "--n", str(n), "--alpha", a) for a in ("1/2", "7")]
    texts.append(_cli_text(capsys, "fm-table", "--n", str(n)))
    return "".join(texts)


def _criterion_11_text(monkeypatch):
    seen = []
    check = constel.theta_check

    def spy(F, theta, *args):
        verdict = check(F, theta, *args)
        cls = sorted(verdict.cls.items()) if verdict.destabilized else None
        seen.append(repr((F.n, F.label, theta.theta, cls, str(verdict.value))))
        return verdict

    with monkeypatch.context() as patch:
        patch.setattr(constel, "theta_check", spy)
        assert verify.criterion_11()["passed"]
    assert len(seen) == 100
    return "\n".join(seen)


PINNED = {
    3: "945f50e147869970600f233a33d76d8c1f7afdc56b7d5a599b2b020d04711084",
    4: "87eaa5542da4126d94ab91e9adcd9060112f90bf351af041318c81c96c4833a7",
    5: "f11090f67d7ec89797eaaa6c34e8ce7eaafc6c23fcdc9fddbc738a9af282329c",
    6: "b9e6dd27bc4b0b947438d0c881603f93634bc0591be4add94fe18111e29db6a5",
    7: "1b6f570bee82b6389773cfa856ef2ef0d14fb076b6bc7aaa913c6ffbdde69854",
    8: "4f181215dbf8c6f63234b3f5daec493b4615975cba7531a8766f65c18698fa11",
    9: "fdeeaf4b105f8c7e591cabbe83fc1067e94859ba0f8819f0630d1fdce2083b3b",
    10: "7e97dab618a9b39df2d4a214766a002305445ad2997c73c64d83e0e987ad75a5",
    11: "b6a9feb3e539c4f29ede8bd6aa382c8dd67018c51059fb57b0a9e3a9a2139604",
    12: "d895db506c49e908de979a1a2e49a7ad9628fa7ca81fab8fe99e00add6545044",
    13: "7b98b2c4736f8559c8fa9feec0036d9a2d4df282f6af85844205bcbb0aac3dbe",
    14: "bc96a7b4467145aa7570e38ca1ac1758d450d9d8c99880ee75a5ff0acfc36bed",
    15: "6e543824bd7e81e2c41f16d6595f49726dcf5e4b8db5120837f02840cc7d56cb",
    16: "188bc39e8a514b540958f9c65165de6c461b6bade3c27fe0bc45cf905a52b0ea",
    17: "319c9957ddcedd318c9dac0807fc53ab81d790072253c26c02a32c38f05fd170",
    18: "27a6cedc276eca7b61322eaacafea0d058238bffa2a1c47ef6713fdeb33abe08",
    19: "a69c6663a299ef765e310d36a48f1981671d3f3452c6902746dcad2de91713ad",
    20: "1b4b3ea98a69231a974981e29733f5db5f91639738fbe5224c6961e7f4ffeba7",
    21: "30e0ea2041277393458deecbd47d56a55fe6db9d7cabc3faec26b0909f31391c",
    22: "399dac3f19bc12206a3ba956d029e8167c1cff27f86185474c680e8fd2bdb12e",
}

CRITERION_11 = "f9e14b8b793791fdc6ca7866c4b4ffb8b435797d13a25fad3ec2d44dc865b69b"


@pytest.mark.parametrize("n", sorted(PINNED))
def test_socle_and_fm_tables_are_pinned(n, capsys, tmp_path):
    first = _tables_text(n, capsys)
    check(first, PINNED[n], f"PINNED[{n}]", tmp_path)
    assert _tables_text(n, capsys) == first


def test_criterion_11_verdicts_are_pinned(monkeypatch, tmp_path):
    first = _criterion_11_text(monkeypatch)
    check(first, CRITERION_11, "CRITERION_11", tmp_path)
    assert _criterion_11_text(monkeypatch) == first
