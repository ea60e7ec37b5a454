"""Byte-identity of every output across commits.

Each entry pins the sha256 of summary_document + summary_csv + the trial-0
transcript for one mode x channel x d (x hops) configuration. A refactor
must leave every digest unchanged; a deliberate output change regenerates
the table and says why in CHANGES.md.

Regenerate: PYTHONPATH=src python tests/test_golden.py > golden.txt,
then paste its lines over GOLDEN below.
"""

import hashlib

import pytest

from siftfree_qkd import (
    DimensionError,
    ExperimentSpec,
    emit_transcript,
    run_experiment,
    summary_csv,
    summary_document,
)
from siftfree_qkd.harness import CHANNEL_KINDS

SEED = 20211018
NOISE_P = {"depolarizing": 0.3, "loss": 0.3}


def _configs():
    for d in (2, 3, 5):
        for channel in CHANNEL_KINDS:
            yield ("two_party", channel, d, 1)
            yield ("pre_check", channel, d, 1)
            if d == 2:
                yield ("third_party_untrusted", channel, d, 1)
                yield ("third_party_trusted", channel, d, 1)
            for hops in (1, 3):
                yield ("chain", channel, d, hops)


def _key(mode, channel, d, hops):
    return f"{mode}/{channel}/d{d}/h{hops}"


def _digest(mode, channel, d, hops):
    spec = ExperimentSpec(
        mode=mode,
        d=d,
        m=2,
        key_length=6,
        trials=2,
        master_seed=SEED,
        channel_kind=channel,
        noise_p=NOISE_P.get(channel, 0.0),
        hops=hops,
        abort_threshold=0.5,
    )
    try:
        summary = run_experiment(spec)
    except DimensionError as exc:
        return f"DimensionError: {exc}"
    text = summary_document(summary) + summary_csv(summary) + emit_transcript(spec, 0)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


GOLDEN = {
    "two_party/ideal/d2/h1": "dfd12b88809863b004202dab01182969e5a0fa2f1efbdab661910c2c0e3ec527",
    "pre_check/ideal/d2/h1": "534937d6a7dea03289b4811e3c9c6559236e7cd51b7f2f59f2248669f04a3041",
    "third_party_untrusted/ideal/d2/h1": "6f36c9ec455ba65d73e743adc77fbd432518a73491e8edf6a6119a67fe7cd990",
    "third_party_trusted/ideal/d2/h1": "9788257b8a451b3a37433c31f3689ccf3fd6e535b6bd10ee02c490e7f05b539a",
    "chain/ideal/d2/h1": "4d5f18f048641204c17fb17216d824c46f7556a3e9f0461354aaaefb8be293f3",
    "chain/ideal/d2/h3": "11b633bf0df060f809edb279b048ceb6cef039eb68b208bca6de4a239fc11c65",
    "two_party/depolarizing/d2/h1": "3b7a03940860001eb3963e81333f803f16e50150cf2727b75b0b620394708433",
    "pre_check/depolarizing/d2/h1": "f3637acdab14ec97e81c3de19152c8d2ce7924ca50165ce9d9f8bdef33846764",
    "third_party_untrusted/depolarizing/d2/h1": "94dab4495e4ec941d7710d933491310099740af33c2a3b1f1e4a4939b2d33a41",
    "third_party_trusted/depolarizing/d2/h1": "972df8fc29a43ffe49370bbb08902688e17916b6202f43d952fd6f1e91358de3",
    "chain/depolarizing/d2/h1": "9a3128c651dc811f7b067ae364964b934609c692ff3e37a31d4137708cb2f57b",
    "chain/depolarizing/d2/h3": "7356a3a5eed7ab168e4cd5c0736c98ee80767070db05a8aa2805782b1993e96e",
    "two_party/loss/d2/h1": "1794635480c835c1ed8d8725d42ac240fc20d32a8249b2140e3a7d54b03947a5",
    "pre_check/loss/d2/h1": "8aa0f26971797ca38fc89367969e3e3ff59280cc1b86b38e872b8e33af44b258",
    "third_party_untrusted/loss/d2/h1": "86b68332dc951fda26e9abd8fd4c19014b9496ecea6489f73bcbfab5ae3cb5a7",
    "third_party_trusted/loss/d2/h1": "76c7ec77e8d8d9ede86800cc829b185e1934be7df4cde0373af716d3242569cb",
    "chain/loss/d2/h1": "653ef64f82c4a01d5826b42cbfef3ede84b501855fab6ab5a578cdbb2b4bd22f",
    "chain/loss/d2/h3": "94a8486624330623cfbc5a50aee4f9426518894377c378f875f2758961cbd907",
    "two_party/substituted/d2/h1": "991ec172a17c3286db5f2a08c4c129f105a14e528365ca5893002e306d640722",
    "pre_check/substituted/d2/h1": "59467d09b6caba2d8716d64ce6ef1361e93adf24c47afd53ae1e39c44a7a0b2e",
    "third_party_untrusted/substituted/d2/h1": "f4c7d03c6904dc5debf36483a98a5fd982beb358877afeaead93b3e360b30333",
    "third_party_trusted/substituted/d2/h1": "f04cffce7c09fd0fcf793fec54b589573ff1e2b2507a38f14629cb8b282b8a72",
    "chain/substituted/d2/h1": "9d1efe5fafb753eeb5715d69911377aea775a1c32e8e38c1bbad876979e560fe",
    "chain/substituted/d2/h3": "aa28a15533378a22bc8f35b982d50e41dcf931319d47c724596da8ef322193af",
    "two_party/purified/d2/h1": "4635e6d6fd4be75b3669723365360a2d6253d7d3a037de8885ff7c2ebb3c8e47",
    "pre_check/purified/d2/h1": "29689360f6eaff9b7193fa03efc5bcd7153feae841c9af9f5578e6d127a0cf06",
    "third_party_untrusted/purified/d2/h1": "5662b1fbae4c0e6a0397897c13e74da3c4c344236b1130c789364dea87449221",
    "third_party_trusted/purified/d2/h1": "0c6292a23a3a0ded8ab5bf5fc7ddfb2cc7374215ba83e963e79e35b569745a62",
    "chain/purified/d2/h1": "5f6a44ae79c5889c0f688179e7a165123f0c781fbc90116264b9e7b7ae20d666",
    "chain/purified/d2/h3": "43dc04b98cf616f516cbc02c443cae43e259e41b95880251ea386c0ca732c80d",
    "two_party/ideal/d3/h1": "f5a874474dafc7cd5289e2b345b008c599e660ad70d63b217fdb0aa2fd67d8ab",
    "pre_check/ideal/d3/h1": "568aa8cc4ec67490737688cbe075381b81808a90034786cc96b16f0b8842da37",
    "chain/ideal/d3/h1": "53acb3c554c43d9710c0b8485dd55382cc5e0452186d1f480560ce6d4b853be4",
    "chain/ideal/d3/h3": "80297e9a9b6d7a1ed0c2e70cb21302b10b5b875c5ec5e9e23b80c0fe8a13a3ff",
    "two_party/depolarizing/d3/h1": "ae0eb37d5ee79ec6a66fd9081822b224572d4ae0259fa61ac8fc19c2132ea2d8",
    "pre_check/depolarizing/d3/h1": "8254b8374cdf6d0c1ed461966a5c34f81e520ea6d17b1d79fd1cb8c3b3a7ad2c",
    "chain/depolarizing/d3/h1": "683db7839457294bf1be7c7dc938efc7673e741a5e0677158cf1a2841e52d631",
    "chain/depolarizing/d3/h3": "fe3c4a55165c2ab923976e769f2c68815d5f8a48ecb866ee928b436ee28c61a3",
    "two_party/loss/d3/h1": "06d4ebd443c521b97ef3c8fbb6318e30ae00daac315785df8feb55ad1cd1732e",
    "pre_check/loss/d3/h1": "847aafb21645408765d5a213cdcbb62fbf1756ddf24ac25b40e00a052f554a10",
    "chain/loss/d3/h1": "e4a52c5f925ccdf9be376e68543551fa591bcf0131979968551f24f68ec93d7a",
    "chain/loss/d3/h3": "1e03055350e0b617092090ae319b61868da792967051cb28eab9932bd79f068c",
    "two_party/substituted/d3/h1": "806d126955847ba5bc5e255fed7a5e247537313879562949c93e13358a0e6f1a",
    "pre_check/substituted/d3/h1": "5c7e739e8dd52f87ccb54b6039b205f144268b2f373375c9fcaab8b19b935258",
    "chain/substituted/d3/h1": "e318056391df3c5081171d9104ffaa8bdc7d3905125564b02d9c093a879c2fff",
    "chain/substituted/d3/h3": "89f26575bcdb83c09b6f40a90100c75b298d1ef08886ce98edc94084efc285dc",
    "two_party/purified/d3/h1": "b4b76c7f434b905ee278693cf3410908ef3234b29b8ffeb3561aeb55841c1f2c",
    "pre_check/purified/d3/h1": "a68dc4a4c1814ba948495138b75845ccbd11c3fefd3d16cbdc01d4803dbcf45b",
    "chain/purified/d3/h1": "3f14fc67f4d4f22e74663455dfed32087996e5a3c509ff5e568e7e10b14f641a",
    "chain/purified/d3/h3": "664c05795ebd15a2d956bcc2c39d7059be537a012e73dd542456d295b7dc60d2",
    "two_party/ideal/d5/h1": "1a6794fdb00b3638c790e7a6b7d783271d17cee090a0e8b27058564d4f34d781",
    "pre_check/ideal/d5/h1": "1dbc7a4eecbd51dddb36b856d45b38607dc5a15292a48edd49918394570202fc",
    "chain/ideal/d5/h1": "58106d4b1cfc34d24b9dfe710e081da172bef02a7af816be4e2b9031350dc655",
    "chain/ideal/d5/h3": "f9db69b0d15f081b5a9fc3765d032b3def1a9760739c2933b0d07ecb24158105",
    "two_party/depolarizing/d5/h1": "c2a378c042068ac3625fd543f83326f5e6ed8fb52f5da36f910d26e9c654d18b",
    "pre_check/depolarizing/d5/h1": "6f9eb3ffa07d4a8c446bdd1a12589bf09539c123a6505d1dfbdca56708b265d3",
    "chain/depolarizing/d5/h1": "4e127cfdcd8167a7ac27c5e7d93860c43a0867b78ced410dc793ff25768a23f2",
    "chain/depolarizing/d5/h3": "479c9c61efc7a00525fd57676ffec1ad70064932817d2300cf19de405d744ff8",
    "two_party/loss/d5/h1": "95e697edb16bd9d214cdd194f62116b7ad25c39b8e4c547cc982cb3eff37bc27",
    "pre_check/loss/d5/h1": "7455a02aab7aadb6e2009d58d41f12e56271a38e90e000fd40720a29bba0db8f",
    "chain/loss/d5/h1": "b741935ccab5e75bc541d48ddb70187f13910e7907f4fb292f59afee101a5e48",
    "chain/loss/d5/h3": "c1200a7cc258f815ca0c5e53f243892c759e80dfac434c72446e5aacd882b9ad",
    "two_party/substituted/d5/h1": "96c2b41201e0f137c363d9ff202abbb7569c1e1c4276e14480390c7d74fd5908",
    "pre_check/substituted/d5/h1": "e7f46a77336a06748a91d29a9a7951f3f27967c198cd1c1e4d8f4b80e7c0e65c",
    "chain/substituted/d5/h1": "abf79c7e5888889222bc3bf725a85bcfc8bb44e361879cf28c295050f762b60e",
    "chain/substituted/d5/h3": "DimensionError: tensor product dimension 78125 exceeds cap 65536",
    "two_party/purified/d5/h1": "3440606b0e7c56641cc4a79c98bea138d568aba4383c7991af8caa068dac6812",
    "pre_check/purified/d5/h1": "7d0b51ea7ec42a1c8d3f59c6e6b3532bccd730f01b6024babbdd7279c1de69c1",
    "chain/purified/d5/h1": "670729b07666fda95deb8002c5c66e3642128d1174572f2cc933c339eadac651",
    "chain/purified/d5/h3": "ffd9cae8fde55747415ada730e41547ac0b5bda471bd9cf6d0d54c7f9b2d48a6",
}


@pytest.mark.parametrize("config", list(_configs()), ids=lambda c: _key(*c))
def test_outputs_match_golden_digest(config):
    assert _digest(*config) == GOLDEN[_key(*config)]


def test_golden_table_covers_the_matrix():
    assert sorted(GOLDEN) == sorted(_key(*c) for c in _configs())


if __name__ == "__main__":
    for config in _configs():
        print(f'    "{_key(*config)}": "{_digest(*config)}",')
