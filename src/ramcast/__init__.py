"""Capacity and stable-throughput analysis of two-source random-access
multicast over an erasure channel with multipacket reception."""

from .channel import (
    AccessProbabilities,
    ArrivalRates,
    ChannelError,
    ChannelModel,
    collision_channel,
    load_channel,
    strong_mpr,
    validate,
    weak_mpr,
)
from .retrans import retrans_service_rates
from .gf2 import (
    decode,
    encode,
    expected_decode_count,
    rank_cdf,
    rank_pmf,
)
from .rlc_markov import (
    ChainModel,
    build_chain,
    rlc_service_rates,
    service_rate,
)
from .regions import (
    RegionFrontier,
    ServiceRates,
    pareto_frontier,
    stability_region_at,
    stable_equals_throughput_frontier,
)
from .sim import SimConfig, SimResult, run, stability_probe

__version__ = "0.1.0"
