"""Golden digests of the CLI's output for every (protocol, attack) pair.

Reports are byte-deterministic per spec, so any change to the simulation,
to the order of random draws or to the report format changes a digest. The
JSON digests pin the report content, for random secrets at L=4 and, at one
seed, for each other `--secrets` mode and for L=1; the CSV and table digests
pin the layout of the other two formats, and one digest pins the `--help`
text as argparse renders it at 80 columns. Update them only for an intended change
of what the lab reports or accepts.
"""
import hashlib

import pytest

from sqpclab.cli import main

SECRET_BITS = 4
TRIALS = 40

DIGESTS = {
    ("jiang", "none", 1): "dca6d264797dc0b9d533e8ba3cacf4eb0f85a232746bc1f383879ea55bdb87ca",
    ("jiang", "none", 2): "6af4d2cc01d4cbad00c13bf5c2586fc5ca410f0389c6e8c982ebfd99527ffafb",
    ("jiang", "outside", 1): "55f0b44f489f3f013b9cf5779c3d1263517172b7f5fb735a56a80d7b813f1206",
    ("jiang", "outside", 2): "dfaed98757f9677b72150655e14164f72053be530722175eaedc0a578a235f6f",
    ("jiang", "participant", 1): "bd3ff71f421d30fab3cafab09b1f3c70f66d84df0a2d35ab73d472c1db7da1b7",
    ("jiang", "participant", 2): "62f37961c072657da0aed1efc040ad502a951c890a32c8998a6a5e38e8e3c9ac",
    ("jiang", "participant-forward", 1): "62bfa84ebb6e019f2d26fc1571c822f036de7401fc1779ade327336d7ee8b6d8",
    ("jiang", "participant-forward", 2): "3c8cd107c4dbabf2eabcc4f119c8072db132488c6db6c2931952e339ac21f383",
    ("jiang", "intercept-resend", 1): "f52a3661f5f6c69cd5f1832bba9cad11c66bc57c99a3d8e4354415f59d58d8c1",
    ("jiang", "intercept-resend", 2): "c85ba3122d6db5b650979eefaa74298ef4a92eae3a064783fccbc6a9a2a0a5f2",
    ("jiang", "measure-resend", 1): "6ffc58d70dc443bdde0cf4655af87404f88da72f84c42952f90c1936ff9c31bb",
    ("jiang", "measure-resend", 2): "432bbab7394ac653c83492ee399e003565645fb55bd1418ff781e4a0bb1d7141",
    ("improved", "none", 1): "41b8e5b1dda1663765575fdee787246ed08f452917ae164187a7bb0af6d25aff",
    ("improved", "none", 2): "f2fb245e5b988a5b26dde03102b4b6cfc044238bc60931ecccb47b7446e4132f",
    ("improved", "outside", 1): "bd375eef2bc0cc05b6d7e07681c3b45e120e40e1f259f9a361f6fa25400c70b4",
    ("improved", "outside", 2): "5c173161bfa574e892a3f98010a7539d1223a5acec42c240bd63f669ef3d8e2d",
    ("improved", "participant", 1): "b8aed498c0ba4678417062644d149a241aee3eb9417d49484b88ef271844ba4e",
    ("improved", "participant", 2): "e7ddbdc716884484909e50c1e582b4c1893f473a5eb5f23c42229584aead268d",
    ("improved", "participant-forward", 1): "f39e8043c0df0d2c0e0aa98f1105d318de430f9f76d64495ba2ac72de665eaa5",
    ("improved", "participant-forward", 2): "8f36428abd44b1ced2ccc4c20efe0c6aee13d523298367765e18cf9e29e4a95a",
    ("improved", "intercept-resend", 1): "9c844ed0aad456e5aec56a0875533d2b5a6a90c666e99fe6e3d21d27e29ade1c",
    ("improved", "intercept-resend", 2): "9249acf88ce6425e2b472d9c02debeb484f585c433da581fb79810259f713b49",
    ("improved", "measure-resend", 1): "a38c7743e90b78709ae51ed0ede2e7c0489bbf2c3a1470881517f155b02831f5",
    ("improved", "measure-resend", 2): "b8b5026db8b51b61cb5bea5e4a64bed10d6742f34fa2ce6206e66e3312d31125",
}


# Seed 1 only: the JSON digests above already pin the content at two seeds.
CSV_DIGESTS = {
    ("jiang", "none"): "2449db8bbdfca5a054178a4c71c3031b182da198842a1e71e54484d071e2e8b6",
    ("jiang", "outside"): "d1ba0f528092d8ee8a43aa4f261deecc158f9c5f4c269f864c75f8daab35ce14",
    ("jiang", "participant"): "afce73d9f6930317f09136de874504f4daea5b1f6d7645f4a71417056320b383",
    ("jiang", "participant-forward"): "14de359bf83b6674c8c9b5d8403094c3fe8a0f8e0796493d85189ea77ad04f6e",
    ("jiang", "intercept-resend"): "66039bed1d9f2bfaefcf3cb54d53ce9b31cfa025b34c49f6f5b8ecf5a2d23d32",
    ("jiang", "measure-resend"): "2b08acdafa340117b3e3263353d22441a6883dc6a66abd114b95658996fd5fa6",
    ("improved", "none"): "480a925c6843e5ce7ec9b1d49a34bdf0f0b445c00b18a9562c766105e2bcec10",
    ("improved", "outside"): "246c5b79f2771243429709c8d17853245315263d98893385775c1cee540429de",
    ("improved", "participant"): "1b409f9c1fcbfa3615151eb5736c675929221220db6a42de79db3dc8f05476f5",
    ("improved", "participant-forward"): "47e012de58af4fe714ee022260647b7aa1a73c95ccb13a53b302c294a4642ca8",
    ("improved", "intercept-resend"): "c7f3983508ac0df5ca3fb703330ec3d7c388a128d78e546a37e8c3b578653b1b",
    ("improved", "measure-resend"): "af16460f901af08f951098cc21127415974bb331685a01df6eb81362ac9cda60",
}

TABLE_DIGESTS = {
    ("jiang", "none"): "fe9d88de7c304682a7c3bce86439946c24b17d778b21447f85bd6369b4d19652",
    ("jiang", "outside"): "959edb77d6fa40ce50569621e4481a1c663f121ecbd556d98fcfb924641fde74",
    ("jiang", "participant"): "5e3180a657ccf96475ac84d5a10e2caec72aef29fa05ae16502f525d6f549c9b",
    ("jiang", "participant-forward"): "a7191d28c247fa19738921120e79bda2d72edd265d473eac1db18be68343d23a",
    ("jiang", "intercept-resend"): "ab9a8e0b53a300971fe66c339b3fc9e078f863c4c23e48f3f52158ff3149b7bb",
    ("jiang", "measure-resend"): "46d89f616038affcba2f1483c8a5f9f073fc0be2541cac6033d12cbd8b13623f",
    ("improved", "none"): "7fbf9e2c6743e23c7b5a4750c25a9dbfdae6597ebb44cb920160dd41e63caff8",
    ("improved", "outside"): "ca4b93a3d715e359e796b68ac01c293afbd4e57ab1d33ae42c8d6ef043a13b33",
    ("improved", "participant"): "25f8322d2b13b67b8332c9714c6891a24a195417d694108ebc90bd85e4c84807",
    ("improved", "participant-forward"): "89ceb7f846d2d9c72ea66d676312d8874ec4811b7eed61ce634dcd5972329033",
    ("improved", "intercept-resend"): "bd6bb936f5c21a11bcf54c1bd8f37bfec14fc02bd80011114e1f89811b6f807d",
    ("improved", "measure-resend"): "82182867df00850d5f6fce88f3db08d228f1ca58067d887db1f1ca9720e77ec9",
}


# Seed 1, one path through the trial's secret draws per mode: equal draws x
# once, unequal redraws y until it differs, explicit draws no secret, and a
# one-bit random run takes the shortest draw layout and the most aborts.
MODES = {
    "equal": (SECRET_BITS, "equal"),
    "unequal": (SECRET_BITS, "unequal"),
    "explicit": (SECRET_BITS, "explicit:A,3"),
    "one-bit": (1, "random"),
}

MODE_DIGESTS = {
    ("equal", "jiang", "none"): "8d5415c29dd4cbf62210d32a1685133feebc95049f1c83adc6c65129a4bd8824",
    ("equal", "jiang", "outside"): "9ca38d4838ee9b6d5138ba9229d46bf514fb1491983ee11c5b923314859ea68c",
    ("equal", "jiang", "participant"): "1f6b3180f0ae2f9c0c6f9d2d1d5a72d25fe8bfc98c4bf8a7a8f86f92436934c1",
    ("equal", "jiang", "participant-forward"): "daebc4be516c9f35287ce8864f9fbb15f544f144fdbb0237952c6e755d8b8d53",
    ("equal", "jiang", "intercept-resend"): "a92709f80713900082d4111b7aaca52409e21b2443eaeaa0572bd9cab10de73d",
    ("equal", "jiang", "measure-resend"): "9e155caf7c376757a069b6dafc1ef51ec91e30f20fd53c79980a1ac81068d156",
    ("equal", "improved", "none"): "52eef218c704077f763ad4d59980e221eb113247012b5dcbdaf7388b4ad3123a",
    ("equal", "improved", "outside"): "2eef70a5b2df82aa0d9d6ec4e4b351c05b76875c2e339ec04fc2137a47f59cfa",
    ("equal", "improved", "participant"): "3b791c78691c7afd0c57be0a8c2c612b5301357490e2bd5f67c437bcc22849fa",
    ("equal", "improved", "participant-forward"): "c73819b7c725cae8d2ae139b70e4dbb519025a18b819c7ee00b74ef1a07b5bb0",
    ("equal", "improved", "intercept-resend"): "d80ba022b26061277a379f480f5e50a378339d1f7d14c138f79f384c2b8835ee",
    ("equal", "improved", "measure-resend"): "fa39722b0086592ba0114e5c2a7edafe8aa32ccfaaa9be4750a456c3b08503c8",
    ("unequal", "jiang", "none"): "96a7b6af1ed3c015cec356157c2271f2b5166b30fea0036c6f7a4ae9a87b5bfd",
    ("unequal", "jiang", "outside"): "33a31deb20f2736a607b1d7ab8e6218d1085f26d8cd7619aaa9d268a0658f58e",
    ("unequal", "jiang", "participant"): "b3b4d612fa0a7d147502f7ceee97932db9793976401f8e615b47b768228c4fac",
    ("unequal", "jiang", "participant-forward"): "35aed8641f3600d41bba79a280c454f43b3bdc579451cd3258ec4b0088971db5",
    ("unequal", "jiang", "intercept-resend"): "f64ebdcced3d7345bb021f46c061facd24e8a09f9e7c31226879b0a0f1ec905f",
    ("unequal", "jiang", "measure-resend"): "097106ed28573390bd16b693f5bb0efd2c8d874e3ff630787116e86448d77628",
    ("unequal", "improved", "none"): "b149178bbc313f71cf82ae37da3e63647a6ae6d83d1c5ea70ac52c03100a6cff",
    ("unequal", "improved", "outside"): "99b365f5a160a7df00566209e00ec72da95e1c2a36c548a303071bccabef5680",
    ("unequal", "improved", "participant"): "9a28794f5b3bf1aaa1ae0bd33497bf1601d042edee3ddcb2447325241a4a6f34",
    ("unequal", "improved", "participant-forward"): "66bdb5ec1a3fc3236f63b1bc3dd179e2c980ea0021665cc4bfcbdd7c049ac20c",
    ("unequal", "improved", "intercept-resend"): "1592189d8c1669bcd2ede1a57926f9d857e43eb2d2d96ad09d84c14578ec1faf",
    ("unequal", "improved", "measure-resend"): "105da2c684310167f839f495d739d301a30f64fd66e78d73397a35ed70278a13",
    ("explicit", "jiang", "none"): "d03a87479395139b249782f30e00571c2c8b70e54d2498ec2af571a151c8c11f",
    ("explicit", "jiang", "outside"): "25904af02ba605c64baabd51a6cd3ebf6a9b6c51c52d89f12679fa6d20af5c70",
    ("explicit", "jiang", "participant"): "18a20611e510d10c2f4dbd09d44f356862731d22bd4e920c6ae965c2ec3def7a",
    ("explicit", "jiang", "participant-forward"): "82ba45b952d5689a9e33b5efca4c60cea167e85dc597bf547ea26577cd819997",
    ("explicit", "jiang", "intercept-resend"): "706c2f2c5ef69e49c1f537f54d9171d1f978b686f1de870475193844b6780eff",
    ("explicit", "jiang", "measure-resend"): "edfd8fefb59affd45fd5428c63f2f2f95fb64846ef3849bd503be67cc2f57867",
    ("explicit", "improved", "none"): "b3c42f1daa4ae379932b48aeb5aee5f99bb583300aefa81b6ecfa797dad521b5",
    ("explicit", "improved", "outside"): "9dfaa60c533a2e35e82e5eea40d8ba7f540aabf9ff9ff281e3d39bfaadd89393",
    ("explicit", "improved", "participant"): "2ab78a959bc583253e4786a1243d56376fc49e74bd935c457ed997a61ffe359e",
    ("explicit", "improved", "participant-forward"): "c7eef9d60991b16bbc05d81a6cd91ef668d2ddd986feaddbb0c75d762b0dd482",
    ("explicit", "improved", "intercept-resend"): "475932e4db5e854200899498ac5d7648d21f3838254d084c7abe7a04f2c3e678",
    ("explicit", "improved", "measure-resend"): "e9cac35fbf788412d4a04dd36c2e638ad8bf43eab11a03e7ac9e1b873f99a8be",
    ("one-bit", "jiang", "none"): "632b1c0caaa39fa19315f1539756ca5ed19af94f03025faf0ca46089f2231a39",
    ("one-bit", "jiang", "outside"): "6e79f3fd928536727f097f196ed60ae04ae4240c4020fa61c3b844f881d23bf5",
    ("one-bit", "jiang", "participant"): "60d631a488ef999265aaff6c8a6d081f3270d911fdefe6fcd0e51110a1300e85",
    ("one-bit", "jiang", "participant-forward"): "6b45d869c477d74320149b86036c27e5c17e55ddf3e53e0081b2290f48d74ffc",
    ("one-bit", "jiang", "intercept-resend"): "f19a8ef47396bc3d5a191d602499053515fd293ac74b8748f2b0280921d12a6f",
    ("one-bit", "jiang", "measure-resend"): "c9de5b09f95fc177bceaf4d300c5f619d9dd3067cdc1e6da2c230b842d0402e0",
    ("one-bit", "improved", "none"): "ba663056702b74ce935060c391ee4faf6dbb6546fb0479820d6b0e3c0047b90a",
    ("one-bit", "improved", "outside"): "d1e530e40b2c8bb875f428692e4704f916804333abc64c04f24f5cc0f14f518d",
    ("one-bit", "improved", "participant"): "1f7b87858d4e22ef5f04891a5869a406932dd26a173bf7c317b50aff06ef9bb2",
    ("one-bit", "improved", "participant-forward"): "e91843f2c278e4d1ea21a2a5032e33a73517211cd20c3769270585ac4b084960",
    ("one-bit", "improved", "intercept-resend"): "b731abee90a219548fa4bf0920f72024a9abb0edcdda710fe968b8e67d851f13",
    ("one-bit", "improved", "measure-resend"): "9e171b3c6d710eafd768ac8b4b35e94bfc6fb877ff502356b0934586729a9e6c",
}

HELP_DIGEST = "633f98847c0befd7b0ae2b3aeae83c24af2c30e37ea311b54f6f373d910900e8"


def _digest(capsys, protocol, attack, seed, fmt, secret_bits=SECRET_BITS, secrets="random"):
    code = main(
        ["--protocol", protocol, "--attack", attack,
         "--secret-bits", str(secret_bits), "--trials", str(TRIALS),
         "--seed", str(seed), "--secrets", secrets, "--output", fmt]
    )
    assert code == 0
    return hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


@pytest.mark.parametrize(("protocol", "attack", "seed"), sorted(DIGESTS))
def test_json_report_digest(capsys, protocol, attack, seed):
    assert _digest(capsys, protocol, attack, seed, "json") == DIGESTS[(protocol, attack, seed)]


@pytest.mark.parametrize(("protocol", "attack"), sorted(CSV_DIGESTS))
def test_csv_report_digest(capsys, protocol, attack):
    assert _digest(capsys, protocol, attack, 1, "csv") == CSV_DIGESTS[(protocol, attack)]


@pytest.mark.parametrize(("protocol", "attack"), sorted(TABLE_DIGESTS))
def test_table_report_digest(capsys, protocol, attack):
    assert _digest(capsys, protocol, attack, 1, "table") == TABLE_DIGESTS[(protocol, attack)]


@pytest.mark.parametrize(("mode", "protocol", "attack"), sorted(MODE_DIGESTS))
def test_secrets_mode_digest(capsys, mode, protocol, attack):
    secret_bits, secrets = MODES[mode]
    digest = _digest(capsys, protocol, attack, 1, "json", secret_bits, secrets)
    assert digest == MODE_DIGESTS[(mode, protocol, attack)]


def test_help_digest(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exit_:
        main(["--help"])
    assert exit_.value.code == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == HELP_DIGEST
