import json

import pytest
from hypothesis import given

from ramcast.channel import (
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

from conftest import channel_models


def test_collision_channel_is_valid():
    ch = collision_channel()
    assert validate(ch) is ch
    for n in (1, 2):
        for m in (1, 2):
            assert ch.solo(n, m) == 1.0
            assert ch.joint(n, m) == 0.0


def test_strict_inequality_boundary_rejected():
    ch = ChannelModel(q_solo=((0.5, 0.8), (0.8, 0.8)), q_joint=((0.5, 0.6), (0.6, 0.6)))
    with pytest.raises(ChannelError, match=r"q_solo\[1\]\[1\]"):
        validate(ch)


def test_out_of_range_rejected():
    ch = ChannelModel(q_solo=((1.2, 0.8), (0.8, 0.8)), q_joint=((0.6, 0.6), (0.6, 0.6)))
    with pytest.raises(ChannelError, match=r"q_solo\[1\]\[1\]"):
        validate(ch)


def test_presets_match_figure_captions():
    s = strong_mpr()
    assert (s.solo(1, 1), s.solo(2, 2)) == (0.8, 0.8)
    assert (s.solo(1, 2), s.solo(2, 1)) == (0.7, 0.7)
    assert all(s.joint(n, m) == 0.6 for n in (1, 2) for m in (1, 2))
    w = weak_mpr()
    assert w.q_solo == s.q_solo
    assert all(w.joint(n, m) == 0.2 for n in (1, 2) for m in (1, 2))
    validate(s)
    validate(w)


def test_success_prob_lookups(strong):
    assert strong.solo(1, 1) == 0.8
    assert strong.joint(1, 2) == 0.6
    assert collision_channel().joint(2, 1) == 0.0


def test_validate_idempotent_and_lookup_pure(strong):
    assert validate(validate(strong)) is strong
    a = strong.joint(2, 2)
    b = strong.joint(2, 2)
    assert a == b


@given(channel_models())
def test_interference_never_helps(ch):
    validate(ch)
    for n in (1, 2):
        for m in (1, 2):
            assert ch.joint(n, m) < ch.solo(n, m)


def test_load_channel_presets():
    assert load_channel("strong_mpr") == strong_mpr()
    assert load_channel("collision") == collision_channel()


def test_load_channel_json_roundtrip(tmp_path, weak):
    path = tmp_path / "chan.json"
    path.write_text(json.dumps(weak.as_dict()))
    assert load_channel(path) == weak


def test_load_channel_skips_a_byte_order_mark(tmp_path, weak):
    # With the mark read as text, the JSON fell to the key = value parser,
    # which reported all eight keys missing.
    path = tmp_path / "chan.json"
    path.write_text(json.dumps(weak.as_dict()), encoding="utf-8-sig")
    assert load_channel(path) == weak


def test_load_channel_keyvalue(tmp_path, strong):
    lines = ["# comment", ""]
    lines += [f"{k} = {v}" for k, v in strong.as_dict().items()]
    path = tmp_path / "chan.txt"
    path.write_text("\n".join(lines))
    assert load_channel(path) == strong


def test_load_channel_reports_json_syntax_errors(tmp_path, weak):
    # A trailing comma is a JSON error, not a malformed key = value line.
    path = tmp_path / "chan.json"
    path.write_text(json.dumps(weak.as_dict())[:-1] + ",}")
    with pytest.raises(ChannelError, match=r"invalid JSON: .* line 1 column \d+") as exc:
        load_channel(path)
    assert "key = value" not in str(exc.value)
    path.write_text('\n  [1, 2,\n  ]')
    with pytest.raises(ChannelError, match="invalid JSON: .* line 3 column 3"):
        load_channel(path)


def test_load_channel_rejects_json_booleans(tmp_path, weak):
    values = weak.as_dict()
    values["q_solo.1.1"] = True
    path = tmp_path / "chan.json"
    path.write_text(json.dumps(values))
    with pytest.raises(ChannelError, match=r"q_solo\.1\.1=True is not a number"):
        load_channel(path)


def test_load_channel_missing_key(tmp_path):
    path = tmp_path / "chan.json"
    path.write_text(json.dumps({"q_solo.1.1": 0.8}))
    with pytest.raises(ChannelError, match="missing channel keys"):
        load_channel(path)


def test_load_channel_unknown_name():
    with pytest.raises(ChannelError, match="unknown channel"):
        load_channel("no_such_preset")


def test_access_probabilities_validation():
    AccessProbabilities(0.0, 1.0)
    with pytest.raises(ChannelError):
        AccessProbabilities(-0.1, 0.5)
    with pytest.raises(ChannelError):
        AccessProbabilities(0.5, 1.5)


def test_arrival_rates_validation():
    ArrivalRates(0.0, 1.0)
    with pytest.raises(ChannelError):
        ArrivalRates(-1e-9, 0.1)
    with pytest.raises(ChannelError, match=r"lambda1=1\.5 outside \[0, 1\]"):
        ArrivalRates(1.5, 0.1)
    with pytest.raises(ChannelError, match=r"lambda2=inf outside \[0, 1\]"):
        ArrivalRates(0.1, float("inf"))


def test_arrival_rates_reject_nan():
    for bad in ((float("nan"), 0.1), (0.1, float("nan"))):
        with pytest.raises(ChannelError, match="nan"):
            ArrivalRates(*bad)
