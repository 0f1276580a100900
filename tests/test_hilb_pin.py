"""Pin the cluster points that hilb names: the form of a point must not move them.

Each digest is the SHA-256 of a canonical JSON text (sorted keys, no
spaces) for one n:

* ``fixed_points(n)``: each point's label with its certificate;
* ``boundary_strict_transforms(n)``: every meeting of a strict transform
  with an exceptional axis, with the label of its cluster point.
"""

import pytest

from dihedral_mckay import hilb
from pin import canonical_json, check


def _fixed(n):
    return [[p.label, cert] for p, cert in hilb.fixed_points(n)]


def _meetings(n):
    return [
        [label, chart, rec["certificate"]["meetings"]]
        for (label, chart), rec in sorted(hilb.boundary_strict_transforms(n).items())
        if rec["certificate"]["type"] == "meets-axes"
    ]


FIXED = {
    3: "d09cd42dea69ea730254e1af3fb13681ed5afef759d5d6bc8e5908f887c6941e",
    4: "25f35ccfb817a408c57564f883348702848e7093d5c37e4118cc2ab12bdc2774",
    5: "4c683314d402db129eb7dddcaa27e9a9cd80640f5230a36436a58fd4bbe256b6",
    6: "49703437edb14346376d521e7c1ceb20bf3f037cc360d41fadfa651d72ceb7c7",
    7: "192fea27def57c67867fee6c410f965d94c4e422296ecf5b2eaec4ceb0fede1e",
    8: "01213ba6dced565ec2f395baaf868b932bf69491287ed837f2eabcc2adbfdcda",
    9: "a6942682a8110eacd8f60357395bf73d32b4f1f0508334b96d6ce7dfdedfec26",
    10: "9e558bbd8d150273d835d5d3da37e1d4ce31d0b2be6c52a98060b008a98b9adc",
    11: "9aedab5f84ec04fc29df61cc84a649aab7966a95c514303b38670b9bebb42c70",
    12: "672a0d2d7d790d46dacae3f952c8bcc1240bc39cb59fdda46e0e47fd34c02605",
    13: "764b924f6dee85c988d13b63446e4e6cd94282f2b1020db0dca6381bfe043661",
    14: "d46458bab6338b9a372c1d3d3049637be994f66ee89d8cade466ef42236403ca",
    15: "81f04ebd33a18cd4532ad2191306af49720a9cb765ee9da945d4a1c0d39fd70b",
    16: "b1d7fe2e2361fd42fdad37033cff61597729ce28e1daf53b2c5f12b7dbe038b5",
    17: "84218af2a627ba999ed9c12e30c1daa231ec31294816fa51029f906b52b9102c",
    18: "cdaf92f78fcc7600823bb349ebc26af5b3bc2152c8e8e307d0edd479d6205756",
    19: "109c346464526ad0fb8dcbc147a264b4e601f151476cb8127459154d41d02074",
    20: "b3afdddf78aec3c8a34040dd135095f12f274b7c116612dd252baf24ac1f7d60",
    21: "1486878c96f9aec1868855e2bb413ad6216f401c755d28cb7a5fa3fc29384a1a",
    22: "3d1fd94f2b5386959f108fb1feba9c3767d860caa4b921f131f8a8c880fc474a",
    23: "5e79fd098f352f8e8ab7751248f81556455b5e3708f40259eb96477b8595546b",
    24: "4c695bcd88f67f48f0cab7dec5d2c29f3783ac4e5d323a9b40e946d3427a9ad8",
    25: "ed394e647322ab63988a74f013851208485f5ac2fe2c10bf0bcf5e2270e8ad5b",
    26: "bc7d34a85e48dd350a119f3d421fb644b1b1ebae9aadf926d0094e01fe69fcac",
    27: "b67dc08927a837e4110b8532c21b9e8680af0409c100a2be3aaf6159e88e1e1a",
    28: "ac7b5a4180463c6f40ae8495b4ad492682d91bd6c8391fb6cf24cca9fab5becb",
    29: "c3a0f4f2aac934021085fa001419f4c4f62c7d87844f6eb628d3c2ca19610d1d",
    30: "f1800a7caa61c8ddb9447e7122c55e166357da488acb50c5f3f4cc4757d1a2fa",
    31: "9a164b10572e1dad04b766b7ccabe12a548f8b92346663f9c667d9cebe38b5e3",
    32: "50b85be1540f5b66c085090aa3a9df29b5dd975226f55ca3798b0363f2971b68",
    33: "75f7ecb6189558f1e6616d377738a7c0c71f571929273675949aeef22156cba2",
    34: "f07da261a357f46466dd32ac0845c633fbe2ae9beb4211340be68e7bec74da23",
    35: "fb02f28d2d6996b04dda6753af11531fca7cd8c24d8e5b27dfdff65d2695ec97",
    36: "cf7520989e8b25098aacfef14dc138b861acd80e2481f5ee950577713cbe0757",
    37: "472a2a5e37c3bc4035e2767dc15e2dd082662052a38c23f5cdb72f24b7230688",
    38: "ed3288a7d76cb4cff8662400986aa9446d0f998e6eaa3936ee958ce08c889c7d",
    39: "54943f32ecdca2c7f1d7312dfc36cd19b4b8a0f2f91208787c08eb9254309cc9",
    40: "d3a315d3e554773866ec8453bcba41e6302efd23d3c434e1bc02f0f1cd6e70fa",
    41: "428b06d16b93c9b477d071afbc80c2a5d8251c57eea8ae5a2cef159a4b09e717",
    42: "f9b8e2345f45ebd4f0bb2d37742b8af26209d504fda968b4f2fc3cb060764f98",
    43: "c421aba1f523ceb2cfbef47a528e8b6019e8e6b3785a67ccb7a21deda39fd885",
    44: "34fbf44b12f54b1f3814edd21f1a6d155c041356523465ae72b960e83c6b3dfd",
    45: "e8a82625f4601bee081bf5a39f0688163766fdd28118163eda7414633743e473",
    46: "c529a32128bf33b46d4d67c56961e033a0160af0c7d505cdd33398624e5876a7",
    47: "4034342e05e5bb35ed8b3dd23f5c051854afa8c862eea0bf9c02928ab4c76378",
    48: "b79d11bf504168b162fa733daca0c6cfe43539aaee828eff7be245eb4dc274eb",
    49: "f65e9c29d11a30a40e87f1784aa6f896f3564229ce41dbf7e5e00bde5ea5b7bc",
    50: "9d75e06785df6863d095f872995ef3d76c5489c8c67f1c3bfd26cffe935dd016",
}

MEETINGS = {
    3: "ebda697f921edc2f28801a18e8d19dc15fc6b5d32d072029780471ff2e4ab797",
    4: "8815fbba4b9a6ce57d09c6d18ceefea206403e573097fa5ab35bd01e9328f160",
    5: "522523eaeb0d2358b12cff54d05b7683c69d99af5cb891fbecf4ff1395995a4b",
    6: "c5b7b2db159be41736ae5f752edc30c71247f8ced6e35c764b03f221eda30082",
    7: "99576447ac0a72e52858480ef0cc7218b84c19a34dccd24d0fb7dd2f74d7f88f",
    8: "7d1c07b46d08f3590bfdf9089d0b3b2009ca6a842054330f7216b93a6b6435f1",
    9: "c7dfabc33c411266cc9a80f0e8ced44eb4b234ccb14c6a051904e21a85e3592e",
    10: "4ea0709220c59c4d6e4c97f3a65e1cd8e77b17e2e8f6b45891424cb1c2a0d857",
    11: "75bca5bb26a4bbaee54b98f17da841a55bde89031848387fc80d469aa176010e",
    12: "670a7d461c94b749550f07842d69ded7f84954fa8fc8232a4db2219bf6ea6f83",
    13: "e7d1663377414174bf598f07ef653a6f6941abc05e4df5aceb8581fe8a19dd38",
    14: "b40273596f5aac5a575af44d110433f6c9c2236160d7cc51ffeb65ce57eb385d",
    15: "38e3059aee1ad858da1a332595a674feaaa26593a13dc6044a0de3b67d43cf46",
    16: "12875215f963f6d204c458f3591c55ff6ac103059c1734ca1b99b6364d16b5e0",
    17: "fbe64f1a8d96a1fe9e3c21d877f6b0549df77e298f8f8c1009a9f71e460dd5cf",
    18: "3b38b47213cc4091c5e14f5b206446be181bb09f81f09043138251e51daaba94",
    19: "b145bda57f3b05f4939992395bcebdedd7cf6a31b7d75c7beaf28b37138d5ed2",
    20: "8da056634a4b5a428f0c9fa07245bd610528983dd5b47ef0345cf350f84206a5",
}


@pytest.mark.parametrize("n", sorted(FIXED))
def test_fixed_points_are_pinned(n, tmp_path):
    check(canonical_json(_fixed(n)), FIXED[n], f"FIXED[{n}]", tmp_path)


@pytest.mark.parametrize("n", sorted(MEETINGS))
def test_boundary_meeting_points_are_pinned(n, tmp_path):
    check(canonical_json(_meetings(n)), MEETINGS[n], f"MEETINGS[{n}]", tmp_path)
