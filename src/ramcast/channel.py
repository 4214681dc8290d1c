"""Stochastic channel model shared by every analysis module.

Two sources (n = 1, 2) multicast to two destinations (m = 1, 2) over a
slotted erasure channel with multipacket reception.  A transmission from
source n is received at destination m with probability ``q_solo[n][m]``
when n transmits alone and ``q_joint[n][m]`` when both sources transmit
in the same slot.  Links to different destinations erase independently.
"""
from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from pathlib import Path

__all__ = [
    "ChannelError",
    "ChannelModel",
    "AccessProbabilities",
    "ArrivalRates",
    "validate",
    "collision_channel",
    "strong_mpr",
    "weak_mpr",
    "PRESETS",
    "load_channel",
]

Matrix2 = tuple[tuple[float, float], tuple[float, float]]


class ChannelError(ValueError):
    """Raised when a channel model or rate parameter violates its invariants."""


@dataclass(frozen=True)
class ChannelModel:
    """Reception probabilities indexed [source-1][destination-1]."""

    q_solo: Matrix2
    q_joint: Matrix2

    def solo(self, source: int, dest: int) -> float:
        return self.q_solo[source - 1][dest - 1]

    def joint(self, source: int, dest: int) -> float:
        return self.q_joint[source - 1][dest - 1]

    def reception(self, source: int, p_other):
        """(phi, sigma, tau) for one transmission of ``source``.

        phi and sigma are the probabilities that it reaches destination 1
        and 2, tau that it reaches both, when the other source transmits
        in the same slot with probability ``p_other`` (a scalar or an
        array).
        """
        s1, s2 = self.solo(source, 1), self.solo(source, 2)
        j1, j2 = self.joint(source, 1), self.joint(source, 2)
        phi = (1 - p_other) * s1 + p_other * j1
        sigma = (1 - p_other) * s2 + p_other * j2
        tau = (1 - p_other) * s1 * s2 + p_other * j1 * j2
        return phi, sigma, tau

    def as_dict(self) -> dict[str, float]:
        """Flat key/value form, matching the config-file schema."""
        out: dict[str, float] = {}
        for n in (1, 2):
            for m in (1, 2):
                out[f"q_solo.{n}.{m}"] = self.solo(n, m)
                out[f"q_joint.{n}.{m}"] = self.joint(n, m)
        return out


def validate(channel: ChannelModel) -> ChannelModel:
    """Check ranges and the interference-never-helps ordering.

    Every entry must lie in [0, 1] and q_solo must strictly exceed
    q_joint on each link.  Returns the model unchanged.
    """
    for name, mat in (("q_solo", channel.q_solo), ("q_joint", channel.q_joint)):
        for n in (1, 2):
            for m in (1, 2):
                v = mat[n - 1][m - 1]
                if not 0.0 <= v <= 1.0:
                    raise ChannelError(f"{name}[{n}][{m}]={v!r} outside [0, 1]")
    for n in (1, 2):
        for m in (1, 2):
            solo = channel.solo(n, m)
            joint = channel.joint(n, m)
            if not solo > joint:
                raise ChannelError(
                    f"q_solo[{n}][{m}]={solo!r} must strictly exceed "
                    f"q_joint[{n}][{m}]={joint!r}"
                )
    return channel


def collision_channel() -> ChannelModel:
    """Classic collision channel: solo transmissions always succeed, overlaps never."""
    ones = ((1.0, 1.0), (1.0, 1.0))
    zeros = ((0.0, 0.0), (0.0, 0.0))
    return ChannelModel(q_solo=ones, q_joint=zeros)


def strong_mpr() -> ChannelModel:
    """Good channel: solo 0.8 (own destination) / 0.7 (cross), joint 0.6."""
    return ChannelModel(
        q_solo=((0.8, 0.7), (0.7, 0.8)),
        q_joint=((0.6, 0.6), (0.6, 0.6)),
    )


def weak_mpr() -> ChannelModel:
    """Poor channel: same solo probabilities as strong_mpr, joint 0.2."""
    return ChannelModel(
        q_solo=((0.8, 0.7), (0.7, 0.8)),
        q_joint=((0.2, 0.2), (0.2, 0.2)),
    )


PRESETS = {
    "collision": collision_channel,
    "strong_mpr": strong_mpr,
    "weak_mpr": weak_mpr,
}

_REQUIRED_KEYS = [
    f"{kind}.{n}.{m}" for kind in ("q_solo", "q_joint") for n in (1, 2) for m in (1, 2)
]


def _unique_keys(path: Path, pairs) -> dict[str, object]:
    """A JSON object's members, refusing a repeated key."""
    values: dict[str, object] = {}
    for key, val in pairs:
        if key in values:
            raise ChannelError(f"{path}: channel key {key!r} repeated")
        values[key] = val
    return values


def _parse_keyvalue(path: Path, text: str) -> tuple[dict[str, object], dict[str, int]]:
    """The values of ``key = value`` lines and the line of each key."""
    values: dict[str, object] = {}
    lines: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        for sep in ("=", ":"):
            if sep in line:
                key, _, val = line.partition(sep)
                break
        else:
            raise ChannelError(f"{path}: line {lineno}: expected 'key = value', got {raw!r}")
        key = key.strip()
        if key in values:
            raise ChannelError(f"{path}: line {lineno}: channel key {key!r} repeated")
        values[key], lines[key] = val.strip(), lineno
    return values, lines


def load_channel(source: str | Path) -> ChannelModel:
    """Build a validated channel from a preset name or a config file.

    Config files are either a JSON object or plain ``key = value`` lines
    with each of the keys ``q_solo.n.m`` / ``q_joint.n.m`` (n, m in
    {1, 2}) exactly once and no other key.  Text that starts with ``{``
    or ``[`` is read as JSON only.
    """
    if isinstance(source, str) and source in PRESETS:
        return validate(PRESETS[source]())
    path = Path(source)
    if not path.exists():
        raise ChannelError(
            f"unknown channel {source!r}: not a preset "
            f"({', '.join(sorted(PRESETS))}) and no such file"
        )
    text = path.read_text(encoding="utf-8-sig")  # drops a byte-order mark
    if text.lstrip()[:1] in ("{", "["):
        try:
            values = json.loads(text, object_pairs_hook=functools.partial(_unique_keys, path))
        except json.JSONDecodeError as exc:
            raise ChannelError(f"{path}: invalid JSON: {exc}") from None
        if not isinstance(values, dict):
            raise ChannelError(f"{path}: JSON channel config must be an object")
        lines = {}
    else:
        values, lines = _parse_keyvalue(path, text)
    missing = [k for k in _REQUIRED_KEYS if k not in values]
    if missing:
        raise ChannelError(f"{path}: missing channel keys: {', '.join(missing)}")

    def grab(kind: str) -> Matrix2:
        rows = []
        for n in (1, 2):
            row = []
            for m in (1, 2):
                raw = values[f"{kind}.{n}.{m}"]
                try:
                    if isinstance(raw, bool):  # float(True) would be 1.0
                        raise TypeError(raw)
                    row.append(float(raw))
                except (TypeError, ValueError):
                    raise ChannelError(
                        f"{path}: {kind}.{n}.{m}={raw!r} is not a number"
                    ) from None
            rows.append((row[0], row[1]))
        return (rows[0], rows[1])

    channel = validate(ChannelModel(grab("q_solo"), grab("q_joint")))
    # Checked after the values, so a file whose channel is itself invalid
    # names that fault first.
    for key in values:
        if key not in _REQUIRED_KEYS:
            at = f"line {lines[key]}: " if key in lines else ""
            raise ChannelError(f"{path}: {at}unknown channel key {key!r}")
    return channel


@dataclass(frozen=True)
class AccessProbabilities:
    """Per-slot transmission probabilities of the two backlogged sources."""

    p1: float
    p2: float

    def __post_init__(self) -> None:
        for name, v in (("p1", self.p1), ("p2", self.p2)):
            if not 0.0 <= v <= 1.0:
                raise ChannelError(f"{name}={v!r} outside [0, 1]")

    def of(self, source: int) -> float:
        return self.p1 if source == 1 else self.p2

    def other(self, source: int) -> float:
        return self.p2 if source == 1 else self.p1


@dataclass(frozen=True)
class ArrivalRates:
    """Bernoulli arrival rates (packets/slot) at the two sources."""

    lambda1: float
    lambda2: float

    def __post_init__(self) -> None:
        for name, v in (("lambda1", self.lambda1), ("lambda2", self.lambda2)):
            if not 0.0 <= v <= 1.0:  # also rejects NaN
                raise ChannelError(f"{name}={v!r} outside [0, 1]")
