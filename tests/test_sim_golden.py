"""Bit-identity gate for the simulator.

Each case pins ``sha256(repr(result.sources))`` of one 20,000-slot run,
recorded from the simulator before its GF(2) insert routine moved into
``gf2``.  Any change to the RNG draw order, the event logic or the
statistics it accumulates changes a hash; a rewrite of the inner loop
must reproduce every one of them.

The seven-part keys, recorded before retransmission joined the RLC
service path, cover the edges of that path: p = (1, 1), where every
slot is a joint transmission, and the collision channel, where joint
receptions never succeed.
"""
import hashlib

import pytest

from ramcast.channel import AccessProbabilities, ArrivalRates, collision_channel, strong_mpr
from ramcast.sim import SimConfig, run

SLOTS = 20_000

GOLDEN = {
    ("retrans", 1, "arrivals", 7): "8b9ed3c9bdf22d5034341eca95641f261cd689f6961c0edfbadb90f8ef051c5a",
    ("retrans", 1, "arrivals", 2024): "8b46a7978bffb52f11afd743d34a4aa93b399b8e427516be02bec59cb7535470",
    ("retrans", 1, "saturated", 7): "88d0e8b214553a5b811126309b677f39e94a0727124f3ca8ce562887f3b0ecee",
    ("retrans", 1, "saturated", 2024): "0b9b0e111528f72d24c2dd1516a0dcaa06837275e97b2522e1e8ba7fc871d522",
    ("rlc", 1, "arrivals", 7): "47f65be51e9f34bf5844cb7af688041a059c727db298a11997982936a13d3bf4",
    ("rlc", 1, "arrivals", 2024): "07c53a0516abd65bc489762e2ce4831d67538b39cd1bebfe58c3a54c96688cc7",
    ("rlc", 1, "saturated", 7): "1542e41453f0a54d5df3a5a2dab6fa8736f1e9cbc63ecb53f15ab12878685f64",
    ("rlc", 1, "saturated", 2024): "29f6dc7a7d1c4d9071ef2ee9f5d1b3ec6985f0159a26b80692961c36f01ce85c",
    ("rlc", 4, "arrivals", 7): "730d8659404cd289cad962639d7603a463bcf4250e587e896d7fac8947970153",
    ("rlc", 4, "arrivals", 2024): "7e8ad05a2d069bdb8b87f341dd4949b1acd70ffb7716d768e4ef1272803c426e",
    ("rlc", 4, "saturated", 7): "c8bcf76049dbf19a09d3fcba1ba2c0c8088b4ff0beaf21868b897eddaf429875",
    ("rlc", 4, "saturated", 2024): "dd7e3caf191e30a53b7edf969d7d76abcc2138ae5c663cc0553b5650ae3ff3e2",
    ("rlc", 64, "arrivals", 7): "9fdcb8ae27963f5c2c3d6fead943901ae0ca4d732730c12c9e87a20761800d9e",
    ("rlc", 64, "arrivals", 2024): "fcb244b7197eaa56c42465cea224da586e101f1b93380a8eba9281894f1084a7",
    ("rlc", 64, "saturated", 7): "5bfc93aaa17ae34fb81c62328a621e7c204f45fb03048b98a6a3aa509b6b7e91",
    ("rlc", 64, "saturated", 2024): "3ef6bfedaf6e7505108ddda3f1e06e6393676d5b6269d099cc280c2c7d0f091c",
    # Edges of the shared service path, keyed (policy, K, mode, seed, channel, p1, p2).
    ("retrans", 1, "saturated", 7, "strong_mpr", 1.0, 1.0): "fca6b51c7c761c8b9faae1d17430209cffcd69124d24af127c7dcfc76cc843cb",
    ("retrans", 1, "saturated", 2024, "strong_mpr", 1.0, 1.0): "21f60d0fa9988f6c99e2b46217dbbfbd5c4e720e0ac48f11669bc71d33d4a5fc",
    ("rlc", 4, "saturated", 7, "strong_mpr", 1.0, 1.0): "614632caf4648c7cf8e6beeff383de815dbf93ece1cab08f0e6371949f3145c3",
    ("rlc", 4, "saturated", 2024, "strong_mpr", 1.0, 1.0): "cc5db6fbc69c00ffc23cf6539f0a86d574b0e7235a99f85b4bd8ef40f622db37",
    ("retrans", 1, "arrivals", 7, "collision", 0.6, 0.4): "0a91ba55088b4ac2313b66f41a5079df776f8b38569f20bff8137d0707b3665d",
    ("retrans", 1, "arrivals", 2024, "collision", 0.6, 0.4): "55ca4dc6321b944b592935a422a7ddb5c7e5b29c1e999df90bdea9a47ccdf63d",
    ("rlc", 2, "arrivals", 7, "collision", 0.6, 0.4): "5e55483b9204a1f211b24befca37af0b2f9af40b714ff26edccea40cd0f3a3df",
    ("rlc", 2, "arrivals", 2024, "collision", 0.6, 0.4): "be4087346b4914a5e18c561a4e9ab0968fb24bb871c9db95616e65fce9b2294e",
}

CHANNELS = {"strong_mpr": strong_mpr, "collision": collision_channel}


def _digest(
    policy: str,
    K: int,
    mode: str,
    seed: int,
    channel: str = "strong_mpr",
    p1: float = 0.6,
    p2: float = 0.4,
) -> str:
    config = SimConfig(
        channel=CHANNELS[channel](),
        access=AccessProbabilities(p1, p2),
        arrivals=ArrivalRates(0.12, 0.08) if mode == "arrivals" else ArrivalRates(0.0, 0.0),
        policy=policy,
        K=K,
        slots=SLOTS,
        seed=seed,
        mode=mode,
    )
    return hashlib.sha256(repr(run(config).sources).encode()).hexdigest()


@pytest.mark.parametrize("case", sorted(GOLDEN), ids=lambda c: "-".join(map(str, c)))
def test_sim_result_matches_golden(case):
    assert _digest(*case) == GOLDEN[case]
