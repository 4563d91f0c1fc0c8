"""Golden digests of CLI JSON reports for every (protocol, attack) pair.

Reports are byte-deterministic per spec, so any change to the simulation,
to the order of random draws or to the report format changes a digest. The
digests pin the report content; update them only for an intended change of
what the lab reports.
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


@pytest.mark.parametrize(("protocol", "attack", "seed"), sorted(DIGESTS))
def test_json_report_digest(capsys, protocol, attack, seed):
    code = main(
        ["--protocol", protocol, "--attack", attack,
         "--secret-bits", str(SECRET_BITS), "--trials", str(TRIALS),
         "--seed", str(seed), "--output", "json"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == DIGESTS[(protocol, attack, seed)]
