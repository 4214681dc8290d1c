"""Bit-identity gate for the simulator.

Each case pins ``sha256(repr(result.sources))`` of one 20,000-slot run.
Any change to the RNG draw order, the event logic or the statistics it
accumulates changes a hash; a rewrite of the inner loop must reproduce
every one of them.

The hashes were re-recorded when ``SourceResult`` lost its per-slot
``occupancy`` field.  Before that, every other ``SourceResult`` field
of all 24 cases was compared between the simulator with and without
occupancy counting and found equal, so the re-recorded hashes pin the
same draws and statistics as the ones they replace.

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
    ("retrans", 1, "arrivals", 7): "7e563f62c0a75186f0a9b7ddbac3c820f0e1d07d5e6defd819466eabc7a217e7",
    ("retrans", 1, "arrivals", 2024): "d29db07a08c2ce1426bc90a0a8c739cffff4bff1da757cb294b970eeb487a4ae",
    ("retrans", 1, "saturated", 7): "ed2cb3fe842337fc447332ffe9312014798f8b7769e4c43c140d0ae17ad38c53",
    ("retrans", 1, "saturated", 2024): "18eff7066801a3bd5f495a5eac4f8a8d7b308819f7e8791105afe262ad2ee91a",
    ("rlc", 1, "arrivals", 7): "6a89ae1ebbb0c0b5a9b0e9f08118f36f1554ece88b5550916a735ecb49a6f853",
    ("rlc", 1, "arrivals", 2024): "745556394f7bc7835c03dda110c65bd3daf82a419ce288cbad61e25790514316",
    ("rlc", 1, "saturated", 7): "267c6cd3fbf3cbb2bcc0c6e52f03c75d53cdb00f1b692e2bcc7289c69308fc47",
    ("rlc", 1, "saturated", 2024): "b288bf4ae73274e2d184f639944de9b3040bd98dc106cd374d6fa9dd6be0dc5a",
    ("rlc", 4, "arrivals", 7): "dae3d295a0859e6421b18da063b1fc4bdfc8e0d74ec4f58dacc04de19bc00afb",
    ("rlc", 4, "arrivals", 2024): "9ecd431a344deced4d9681777259d5c40f6b4078131f888b02ebdadf51e880bb",
    ("rlc", 4, "saturated", 7): "037d2a09a76a85ae52b9a0feda2685f5d4817166a5de2158acd41ff437b70dd0",
    ("rlc", 4, "saturated", 2024): "222f375866b8a96179b909dd39da7a611dd476ccbbf8ba88cf4dadb458286a3d",
    ("rlc", 64, "arrivals", 7): "71fa73da4db3a4ac9c22244750cd7c50fbe65bbcadf73c7a588e9d336fea18c3",
    ("rlc", 64, "arrivals", 2024): "fed8637769184bb29eafa1d5d75081584dc7091f76ab9e07e7015ff02ec52a71",
    ("rlc", 64, "saturated", 7): "1bc547380e10fe9889f4a32ffb6f366b2d0f5daaa77d2fd1c5689bee1f94db99",
    ("rlc", 64, "saturated", 2024): "93d4d90ba10ce00384dfedeb7b0a39c9ae4363a42463a76d7eba8aea07ac0810",
    # Edges of the shared service path, keyed (policy, K, mode, seed, channel, p1, p2).
    ("retrans", 1, "saturated", 7, "strong_mpr", 1.0, 1.0): "f008a7e695bb107f81f34048b35621bcb42e1b8d4f69781a2cd3949d1fe742c4",
    ("retrans", 1, "saturated", 2024, "strong_mpr", 1.0, 1.0): "a7e6044f01778f02e99bed99315eb6fc44ea0d680fe985d39a9278d6ef8d0606",
    ("rlc", 4, "saturated", 7, "strong_mpr", 1.0, 1.0): "98c80eadd5090fc3c07a9a098911f1acbaaf23785da26c04a16f8a304bc3d231",
    ("rlc", 4, "saturated", 2024, "strong_mpr", 1.0, 1.0): "9266acc0b54940abf3779de33b30e62ee1bed6e76726eefa164b7a9b87faf52f",
    ("retrans", 1, "arrivals", 7, "collision", 0.6, 0.4): "e10b03a1d43d30e46e33e13c5e67d64113e5e2434cc91f8f0ee9e8f6eafd642b",
    ("retrans", 1, "arrivals", 2024, "collision", 0.6, 0.4): "3433d4f7e8c31cfb674ab0aa2f3e7008e6a9fe2f3c8525104b6cf0e38a8a420e",
    ("rlc", 2, "arrivals", 7, "collision", 0.6, 0.4): "af5867f53c52c54deb2799e1eb619b09349888fb6032c29c10ca426cd02d07bb",
    ("rlc", 2, "arrivals", 2024, "collision", 0.6, 0.4): "717eb02d497d65e4a9585057f83b4e3916c88aa859adce6b515ba99daf79a35e",
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
