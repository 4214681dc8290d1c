"""Bit-identity gate for the simulator.

Each case pins ``sha256(repr(result.sources))`` of one run, 20,000 slots
unless its key says otherwise.
Any change to the RNG draw order, the event logic or the statistics it
accumulates changes a hash; a rewrite of the inner loop must reproduce
every one of them.

The hashes were re-recorded twice, each time only after every
remaining ``SourceResult`` field of all 24 cases had been dumped from
the simulator before and after the change and found byte-identical, so
the re-recorded hashes pin the same draws and statistics as the ones
they replace:

- when ``SourceResult`` lost its per-slot ``occupancy`` field;
- when it lost the per-destination decode-count histogram and the
  correlation of the two decode counts, and ``departures`` and
  ``services`` came to be derived from the per-batch departure counts
  instead of counted separately.

The seven-part keys, recorded before retransmission joined the RLC
service path, cover the edges of that path: p = (1, 1), where every
slot is a joint transmission, and the collision channel, where joint
receptions never succeed.

The eight-part keys run 70,001 slots in saturated mode: two block
boundaries (``sim._BLOCK`` is 32,768 slots) and a ragged last block, so
a service carried wrongly from one block into the next changes a hash.
Their hashes were recorded from the slot-by-slot saturated loop, before
saturated mode moved to per-block masks.

The ten-part keys run 70,001 slots in arrivals mode, with the arrival
rates last.  Besides the default rates they cover a pair just inside the
stability boundary, where services and idle periods straddle block
edges, and lambda1 = 1, where source 1 never idles.  Their hashes were
recorded from the slot-by-slot arrivals loop, before arrivals mode moved
to a per-block event loop.
"""
import hashlib

import pytest

from ramcast.channel import AccessProbabilities, ArrivalRates, collision_channel, strong_mpr
from ramcast.sim import SimConfig, run

SLOTS = 20_000

GOLDEN = {
    ("retrans", 1, "arrivals", 7): "7e53f5e218260fd04d9c79f019b6d38190eb6aaea66a737f16af406e2be3f43b",
    ("retrans", 1, "arrivals", 2024): "f0fe368df4935f8a871b72a3d439df06b86a56f42a14ff7ce0fd4ec0b58d22f9",
    ("retrans", 1, "saturated", 7): "576e20483f7ab81947817dc63ee977e2bec6021b887068fc5ee17c85bf342740",
    ("retrans", 1, "saturated", 2024): "8663245449a49b226c4c699a79ef25b33726b30a382e78b59f88da6d4d909a19",
    ("rlc", 1, "arrivals", 7): "d3b5ca927a2855bc28a5d3de41ae1f432a260ed88b2dd51e0692bf002ac0ee4e",
    ("rlc", 1, "arrivals", 2024): "aecbb0370ddc7574813c1d1335a930ae10b02e640b3b19175eddda4df41b9923",
    ("rlc", 1, "saturated", 7): "1f711b6ca7180043caa9dc6c2dbec12955f6a8e99cd210decabf5642d426da1d",
    ("rlc", 1, "saturated", 2024): "b2cfc076dba791c141a066fb5ab950dac5ef21f9dde79e7ce7bb2b2c7b9048fc",
    ("rlc", 4, "arrivals", 7): "dad9604c86f3b0d74e81fd3ea987ff0a73d14308de6d1a8a7310f40873910531",
    ("rlc", 4, "arrivals", 2024): "cc0ca7a839fa61520f7bfaa10cdf4e846a4f8633ca44e6091e0dc84a1c145f4f",
    ("rlc", 4, "saturated", 7): "e6c9b401d0845f79b5d92d5ff5f56a191c33233d174edf688c071ac240737b7d",
    ("rlc", 4, "saturated", 2024): "09d13ddc42336ef178568315210baff54a8a7c5c1b8a5d69ef5d3564995a11b4",
    ("rlc", 64, "arrivals", 7): "314a1f735f144583af985f0c24516794b5bc8cc55602f1326ec0711137b4e698",
    ("rlc", 64, "arrivals", 2024): "aeb056bc43498e6fd0166155cc712ff00cfa51241d2c29198caea80e871e4688",
    ("rlc", 64, "saturated", 7): "abfc58b03375bf540faaf63e516330b18d1a23cf67f1370987b130284133163e",
    ("rlc", 64, "saturated", 2024): "3e6d14295ff50cbe8a92cc4e353a7f44ce7a9919c0953a62a1128fdf3c941b56",
    # Edges of the shared service path, keyed (policy, K, mode, seed, channel, p1, p2).
    ("retrans", 1, "saturated", 7, "strong_mpr", 1.0, 1.0): "5c354c2dd3ac169e2b165c0c9b75c383d90abbafd42fd31a1cb2f626f5fe7490",
    ("retrans", 1, "saturated", 2024, "strong_mpr", 1.0, 1.0): "663a6bee3d1dea32a220a7899803ca5525a79b81026d7db97b839f16d223da1f",
    ("rlc", 4, "saturated", 7, "strong_mpr", 1.0, 1.0): "cd789967b945ec263583337bc27fe30e6de84523eb922cd05ca1f1b67a955870",
    ("rlc", 4, "saturated", 2024, "strong_mpr", 1.0, 1.0): "ddf1b6d37851d8646748283d4bbd613bd05a6f40ff24f094364349fd3a8eb655",
    ("retrans", 1, "arrivals", 7, "collision", 0.6, 0.4): "23bf615108810dc1390285e1f4c343d07323807b1f6b9ae74adde105faeea382",
    ("retrans", 1, "arrivals", 2024, "collision", 0.6, 0.4): "ee12243fa2333a994a1ab12abfe8153707a2cdb067d9fd0312e76d1d11bc1438",
    ("rlc", 2, "arrivals", 7, "collision", 0.6, 0.4): "80dba73f7779d60eb56098cad6a53d29305929f84918e0635fd7b1ac84bcbc0a",
    ("rlc", 2, "arrivals", 2024, "collision", 0.6, 0.4): "de4769c1545515d2f9953531afbe0c9005b6910733ae083d3b1c8b0f15ac2a45",
    # Saturated runs across two block boundaries with a ragged last block,
    # keyed (policy, K, mode, seed, channel, p1, p2, slots).
    ("retrans", 1, "saturated", 7, "strong_mpr", 0.6, 0.4, 70_001): "e7c91761891379a515c2e4ddb95684b1c2eee0e0e4de120560ef46c468175e7a",
    ("retrans", 1, "saturated", 7, "strong_mpr", 1.0, 1.0, 70_001): "fb13bd85ecd7cc6a2bd37f060568b0c424c5621588d200b0d00cab5d3f54a096",
    ("rlc", 1, "saturated", 7, "strong_mpr", 0.6, 0.4, 70_001): "f64fbb075d119100da3e044d954017cac4fbd4b5683827c93d5cff0a374f4f3f",
    ("rlc", 4, "saturated", 7, "strong_mpr", 0.6, 0.4, 70_001): "1fe271210519e04fcfb97aae6f132669adfd7dfe158c1583265dc1c0a90a6876",
    ("rlc", 64, "saturated", 7, "strong_mpr", 0.6, 0.4, 70_001): "9ad7f37182dcc767740c059ad0aa63018131cc896dad7ae5985c125391292bf4",
    ("retrans", 1, "saturated", 7, "collision", 0.6, 0.4, 70_001): "371a511338ea05eb1c569bb2a96c27a78e56d0e639e9270b0c534d1815b5176a",
    # Arrivals runs across two block boundaries with a ragged last block,
    # keyed (policy, K, mode, seed, channel, p1, p2, slots, lambda1, lambda2).
    ("retrans", 1, "arrivals", 7, "strong_mpr", 0.6, 0.4, 70_001, 0.12, 0.08): "3bbb3aeabea353ec5461d1c2d02d6eb9773e35f65c57cac9e43b4769dc9cea28",
    ("rlc", 4, "arrivals", 7, "strong_mpr", 0.6, 0.4, 70_001, 0.12, 0.08): "3cbaeb67c619c4053f99982c33c92794ca557cd13d482abcf253c1183d42dc62",
    ("rlc", 64, "arrivals", 7, "strong_mpr", 0.6, 0.4, 70_001, 0.12, 0.08): "f610ca797ce7d9775d9351636f7356870e5c1e05869cd07eda6202f1a64b5f50",
    ("retrans", 1, "arrivals", 7, "collision", 0.6, 0.4, 70_001, 0.12, 0.08): "b1c2ff5e2083125f0c42b3db881083280e21b7f87b0de77913c2c0d1cf56be10",
    ("retrans", 1, "arrivals", 7, "strong_mpr", 0.6, 0.4, 70_001, 0.34, 0.15): "f923e781192e6b64495d46a181f03e1d0eb34f7b268bd54ad6a97428130e3bc1",
    ("rlc", 4, "arrivals", 7, "strong_mpr", 0.6, 0.4, 70_001, 0.25, 0.15): "b3efb5a578be844dffc25f55294b1f738ba79d0fad10ae7d11d3178b5e9c8366",
    ("retrans", 1, "arrivals", 7, "strong_mpr", 0.6, 0.4, 70_001, 1.0, 0.08): "527b92eeeb6c166070b80f48f38b19e02ca0c1995e3e0e662a37f40e95943606",
    ("rlc", 4, "arrivals", 7, "strong_mpr", 0.6, 0.4, 70_001, 1.0, 0.08): "97060569a7e0f1de937f99755353d7e7aac0db94cdcda65f6a63f9ed8fd91774",
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
    slots: int = SLOTS,
    lambda1: float = 0.12,
    lambda2: float = 0.08,
) -> str:
    config = SimConfig(
        channel=CHANNELS[channel](),
        access=AccessProbabilities(p1, p2),
        arrivals=ArrivalRates(lambda1, lambda2) if mode == "arrivals" else ArrivalRates(0.0, 0.0),
        policy=policy,
        K=K,
        slots=slots,
        seed=seed,
        mode=mode,
    )
    return hashlib.sha256(repr(run(config).sources).encode()).hexdigest()


@pytest.mark.parametrize("case", sorted(GOLDEN), ids=lambda c: "-".join(map(str, c)))
def test_sim_result_matches_golden(case):
    assert _digest(*case) == GOLDEN[case]
