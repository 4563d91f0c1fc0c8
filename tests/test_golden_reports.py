"""Golden digests of the CLI's output for every (protocol, attack) pair.

Reports are byte-deterministic per spec, so any change to the simulation,
to the order of random draws or to the report format changes a digest. The
JSON digests pin the report content; the CSV and table digests pin the
layout of the other two formats, and one digest pins the `--help` text as
argparse renders it at 80 columns. Update them only for an intended change
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

HELP_DIGEST = "633f98847c0befd7b0ae2b3aeae83c24af2c30e37ea311b54f6f373d910900e8"


def _digest(capsys, protocol, attack, seed, fmt):
    code = main(
        ["--protocol", protocol, "--attack", attack,
         "--secret-bits", str(SECRET_BITS), "--trials", str(TRIALS),
         "--seed", str(seed), "--output", fmt]
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


def test_help_digest(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exit_:
        main(["--help"])
    assert exit_.value.code == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == HELP_DIGEST
