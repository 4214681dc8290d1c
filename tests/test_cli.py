import json
from pathlib import Path

import numpy as np
import pytest

from ramcast.cli import main


def run_cli(*argv):
    return main([str(a) for a in argv])


def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    lines = [ln for ln in Path(path).read_text(encoding="utf-8").split("\n") if ln]
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


def test_capacity_command(tmp_path):
    out = tmp_path / "cap.csv"
    assert run_cli("capacity", "--channel", "strong_mpr", "--step", "0.1", "--out", out) == 0
    header, rows = read_csv(out)
    assert header == ["p1", "p2", "r1", "r2", "on_frontier"]
    assert len(rows) == 121
    manifest = json.loads((tmp_path / "cap.manifest.json").read_text())
    assert manifest["command"] == "capacity"
    assert manifest["outputs"] == ["cap.csv"]
    assert manifest["params"]["q_solo.1.1"] == 0.8
    assert "duration_s" in manifest and "defaults" in manifest


def test_capacity_csv_roundtrip_lossless(tmp_path):
    out = tmp_path / "cap.csv"
    run_cli("capacity", "--channel", "weak_mpr", "--step", "0.1", "--out", out)
    from ramcast.capacity import capacity_sweep
    from ramcast.channel import weak_mpr

    grid, _, r1, r2, _ = capacity_sweep(weak_mpr(), 0.1)
    _, rows = read_csv(out)
    cells = [(a, b) for a in grid for b in grid]
    assert len(rows) == len(cells) == r1.size
    for row, (a, b), x, y in zip(rows, cells, r1.ravel(), r2.ravel()):
        assert float(row[0]) == a and float(row[1]) == b
        assert float(row[2]) == x and float(row[3]) == y


@pytest.mark.parametrize("channel", ["strong_mpr", "weak_mpr", "collision"])
def test_capacity_flags_exactly_the_frontier_rows(tmp_path, channel):
    from ramcast.capacity import capacity_sweep
    from ramcast.channel import load_channel

    out = tmp_path / "cap.csv"
    run_cli("capacity", "--channel", channel, "--step", "0.05", "--out", out)
    frontier = capacity_sweep(load_channel(channel), 0.05)[-1]
    _, rows = read_csv(out)
    flagged = [n for n, row in enumerate(rows) if row[4] == "1"]
    assert all(row[4] in ("0", "1") for row in rows)
    assert flagged == sorted(frontier.index.tolist())
    assert len(flagged) == frontier.x.size
    pairs = [(rows[n][2], rows[n][3]) for n in flagged]
    assert len(set(pairs)) == len(pairs)


# Asymmetric: source 1's links differ from source 2's mirrored links, so
# a transposed (p1, p2) block changes the rates it writes.
_ASYMMETRIC = {
    "q_solo.1.1": 0.9, "q_solo.1.2": 0.55, "q_solo.2.1": 0.7, "q_solo.2.2": 0.85,
    "q_joint.1.1": 0.45, "q_joint.1.2": 0.2, "q_joint.2.1": 0.3, "q_joint.2.2": 0.6,
}


@pytest.mark.parametrize("channel", ["asymmetric", "collision"])
def test_capacity_csv_is_the_flat_sweep_cell_by_cell(tmp_path, channel):
    # The command writes the grid one p1 row at a time with each grid value
    # formatted once; the reference formats every cell of the flat sweep.
    # Step 0.03 gives a 34-value grid whose linspace values are not all
    # i/33 (0.33333333333333337 at i = 11), so a grid string computed any
    # other way shows.
    from ramcast.capacity import capacity_sweep
    from ramcast.channel import load_channel

    if channel == "asymmetric":
        channel = tmp_path / "chan.json"
        channel.write_text(json.dumps(_ASYMMETRIC))
    out = tmp_path / "cap.csv"
    assert run_cli("capacity", "--channel", channel, "--step", "0.03", "--out", out) == 0
    grid, _, r1, r2, frontier = capacity_sweep(load_channel(channel), 0.03)
    assert r1.shape == (34, 34) and str(grid[11]) == "0.33333333333333337"
    on = set(frontier.index.tolist())
    p1s, p2s = np.repeat(grid, grid.size), np.tile(grid, grid.size)
    cells = zip(p1s.tolist(), p2s.tolist(), r1.ravel().tolist(), r2.ravel().tolist())
    lines = ["p1,p2,r1,r2,on_frontier"]
    lines += [",".join(map(str, (*row, int(n in on)))) for n, row in enumerate(cells)]
    assert out.read_text(encoding="utf-8") == "\n".join(lines) + "\n"


def test_capacity_csv_is_streamed(tmp_path):
    # At step 0.002 (251,001 rows), a writer that turns whole grid columns
    # into lists peaks at 40.7 MB under tracemalloc; one p1 row at a time
    # it is 10.4 MB, nearly all of it the sweep's own arrays.
    import tracemalloc

    tracemalloc.start()
    try:
        rc = run_cli("capacity", "--channel", "strong_mpr", "--step", "0.002",
                     "--out", tmp_path / "cap.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 0
    assert peak < 30e6


def test_grid_too_large_for_memory_is_a_clean_error(tmp_path, capsys):
    # regions.sweep asks first for its (2, n, n) rate tables, which numpy
    # refuses at once, before anything is written: 142 PiB at step 1e-8,
    # and at step 1e-9 more bytes than an array can address.
    out = tmp_path / "cap.csv"
    for step, message in (("1e-8", "Unable to allocate 142. PiB"), ("1e-9", "array is too big")):
        assert run_cli("capacity", "--channel", "strong_mpr", "--step", step, "--out", out) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"ramcast: error: {message}")
        assert "Traceback" not in err
        assert list(tmp_path.iterdir()) == []


_CELLS = ["a", "", 7, -3, 0.0, -0.0, 1e-05, 1e16, float("nan"), float("inf"),
          float("-inf"), 0.1, 1 / 3, 0.33333333333333337]


@pytest.mark.parametrize("sizes", [[], [0], [1], [5], [3, 0, 1, 14]])
def test_write_csv_blocks_equal_the_row_wise_lines(tmp_path, sizes):
    # Blocks of columns, consumed once from an iterator, give the bytes of
    # one ",".join(map(str, row)) line per row; every cell type is cycled
    # through every column.
    from itertools import cycle

    from ramcast.cli import write_csv

    header = ["s", "x", "y"]
    cells = cycle(_CELLS)
    row_lists = [[[next(cells) for _ in header] for _ in range(m)] for m in sizes]
    blocks = ([[row[j] for row in rows] for j in range(len(header))] for rows in row_lists)
    out = tmp_path / "t.csv"
    write_csv(out, header, blocks)
    lines = ["s,x,y\n"] + [",".join(map(str, row)) + "\n" for rows in row_lists for row in rows]
    assert out.read_bytes() == "".join(lines).encode("utf-8")


@pytest.mark.parametrize("sizes", [[], [0], [1], [14, 0, 3], [8193]])
def test_write_csv_float_array_columns_equal_the_row_wise_lines(tmp_path, sizes):
    # float64 array columns go through floatfmt, bytes arrays are written
    # as they are, and any other column through str: together the same
    # bytes as one ",".join(map(str, row)) line per row.
    from ramcast.cli import write_csv

    rng = np.random.default_rng(len(sizes))
    floats = [float(v) for v in _CELLS if isinstance(v, float)]
    blocks, lines = [], ["k,x,tag,y\n"]
    for m in sizes:
        x = np.resize(np.array(floats), m)
        y = rng.integers(0, 2**64, m, dtype=np.uint64, endpoint=False).view(np.float64)
        tag = np.resize(np.array([b"a", b"", b"0.5"]), m)
        k = list(range(m))
        blocks.append((k, x, tag, y))
        lines += [f"{a},{b!r},{c.decode()},{d!r}\n" for a, b, c, d in zip(k, x.tolist(), tag, y.tolist())]
    out = tmp_path / "t.csv"
    write_csv(out, ["k", "x", "tag", "y"], iter(blocks))
    assert out.read_bytes() == "".join(lines).encode("utf-8")


def test_verify_chain_flags_rates_the_simulation_never_delivered(tmp_path, capsys):
    # In 10 slots no K = 2 generation decodes: every simulated rate is 0 and
    # every rel_delta nan, which the summary must not report as agreement.
    out = tmp_path / "v.csv"
    assert run_cli("verify-chain", "--channel", "strong_mpr", "--K", "2",
                   "--slots", "10", "--out", out) == 0
    _, rows = read_csv(out)
    assert [r[9] for r in rows if r[0] == "mu_b"] == ["nan"] * 4
    stdout = capsys.readouterr().out
    assert "vs simulation: nan, 4 rates > 0 with no simulated departure)" in stdout


def test_verify_chain_leaves_a_silent_source_out_of_the_worst(tmp_path, capsys):
    # At p1 = 0 source 1's analytic and simulated rates are both 0; the worst
    # is then source 2's, in both variants.
    out = tmp_path / "v.csv"
    assert run_cli("verify-chain", "--channel", "strong_mpr", "--K", "2", "--p1", "0",
                   "--slots", "2000", "--out", out) == 0
    _, rows = read_csv(out)
    mu_b = [r for r in rows if r[0] == "mu_b"]
    assert [r[9] for r in mu_b if r[5] == "1"] == ["nan", "nan"]
    worst = max(abs(float(r[9])) for r in mu_b if r[5] == "2")
    assert f"vs simulation: {worst:.4%})" in capsys.readouterr().out


def test_rates_command_stdout(tmp_path, capsys):
    assert run_cli("rates", "--channel", "strong_mpr", "--policy", "retrans",
                   "--p1", "0.5", "--p2", "0.5") == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("policy,K,p1,p2,mu_1b")
    cells = lines[1].split(",")
    assert cells[0] == "retrans"
    assert float(cells[4]) == pytest.approx(0.2712, abs=5e-5)


def test_rates_rlc_k_validation(capsys):
    assert run_cli("rates", "--channel", "strong_mpr", "--policy", "rlc",
                   "--K", "0", "--p1", "0.5", "--p2", "0.5") == 1
    err = capsys.readouterr().err
    assert "K must be in [1" in err


def test_unknown_channel_is_an_error(capsys):
    assert run_cli("rates", "--channel", "bogus", "--policy", "retrans",
                   "--p1", "0.5", "--p2", "0.5") == 1
    assert "unknown channel" in capsys.readouterr().err


def test_region_command(tmp_path):
    out = tmp_path / "region.csv"
    assert run_cli("region", "--channel", "strong_mpr", "--kind", "rlc", "--K", "2",
                   "--step", "0.1", "--out", out) == 0
    header, rows = read_csv(out)
    assert header == ["kind", "K", "p1", "p2", "x", "y"]
    assert all(r[0] == "rlc" and r[1] == "2" for r in rows)
    xs = [float(r[4]) for r in rows]
    assert xs == sorted(xs)


def test_rankdist_command(tmp_path):
    out = tmp_path / "rd.csv"
    assert run_cli("rankdist", "--K", "3", "--max-j", "10", "--out", out) == 0
    header, rows = read_csv(out)
    assert header == ["j", "cdf", "pmf"]
    assert len(rows) == 11
    from ramcast.gf2 import rank_cdf

    assert float(rows[3][1]) == rank_cdf(3, 3)
    assert float(rows[2][1]) == 0.0


def test_sim_command(tmp_path):
    out = tmp_path / "sim.csv"
    assert run_cli("sim", "--channel", "weak_mpr", "--policy", "rlc", "--K", "2",
                   "--p1", "0.5", "--p2", "0.5", "--slots", "20000",
                   "--seed", "9", "--out", out) == 0
    header, rows = read_csv(out)
    assert header[0] == "source"
    assert len(rows) == 2
    assert 0.0 <= float(rows[0][6]) <= 1.0


@pytest.mark.parametrize(
    "policy,K,shown", [("retrans", 5, "1"), ("retrans", 0, "1"), ("rlc", 3, "3")]
)
def test_sim_reports_the_generation_size_it_ran(capsys, policy, K, shown):
    assert run_cli("sim", "--channel", "strong_mpr", "--policy", policy, "--K", K,
                   "--p1", "0.5", "--p2", "0.5", "--slots", "2000") == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].split(",")[2] == "K"
    assert [ln.split(",")[2] for ln in lines[1:]] == [shown, shown]


def test_verify_chain_command(tmp_path):
    out = tmp_path / "verify.csv"
    assert run_cli("verify-chain", "--channel", "strong_mpr", "--K", "2",
                   "--slots", "50000", "--out", out) == 0
    header, rows = read_csv(out)
    assert header[0] == "metric"
    variants = {r[1] for r in rows}
    assert variants == {"paper", "exact"}
    resid_rows = [r for r in rows if r[0] == "row_sum_residual"]
    assert all(float(r[6]) <= 1e-12 for r in resid_rows)


def test_verify_chain_mu_b_is_p_own_times_g(tmp_path):
    # The printed rate is p_own * g_n, the bits of the point rates, also at
    # p1 = 1e-14.
    from ramcast.channel import AccessProbabilities, strong_mpr
    from ramcast.rlc_markov import rlc_service_rates

    out = tmp_path / "verify.csv"
    assert run_cli("verify-chain", "--channel", "strong_mpr", "--K", "4", "--p1", "1e-14",
                   "--p2", "0.5", "--slots", "1000", "--out", out) == 0
    _, rows = read_csv(out)
    access = AccessProbabilities(1e-14, 0.5)
    printed = [r for r in rows if r[0] == "mu_b"]
    assert len(printed) == 4
    for r in printed:
        rates = rlc_service_rates(strong_mpr(), access, 4, variant=r[1])
        assert float(r[6]) == rates.backlogged[int(r[5]) - 1]


def test_figure_command(tmp_path):
    out = tmp_path / "fig"
    assert run_cli("figure", "--channel", "strong_mpr", "--K-list", "1,2",
                   "--step", "0.1", "--out", out) == 0
    for name in ("capacity.csv", "retrans.csv", "rlc_K1.csv", "rlc_K2.csv",
                 "plot_figure.py", "manifest.json"):
        assert (out / name).exists(), name
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["params"]["K_list"] == [1, 2]


CHANNEL_PARAMS = {"channel"} | {
    f"q_{kind}.{n}.{m}" for kind in ("solo", "joint") for n in (1, 2) for m in (1, 2)
}

MANIFEST_CASES = [
    (["capacity", "--channel", "strong_mpr", "--step", "0.1", "--out", "a.csv"],
     "a.manifest.json", {"step"} | CHANNEL_PARAMS, None),
    (["rates", "--channel", "strong_mpr", "--policy", "rlc", "--K", "2", "--p1", "0.5",
      "--p2", "0.5", "--out", "a.csv"],
     "a.manifest.json", {"policy", "K", "p1", "p2", "variant"} | CHANNEL_PARAMS, None),
    (["region", "--channel", "strong_mpr", "--kind", "retrans", "--step", "0.1",
      "--out", "a.csv"],
     "a.manifest.json", {"kind", "K", "step", "variant"} | CHANNEL_PARAMS, None),
    (["rankdist", "--K", "3", "--max-j", "5", "--out", "a.csv"],
     "a.manifest.json", {"K", "max_j"}, None),
    (["sim", "--channel", "strong_mpr", "--p1", "0.5", "--p2", "0.5", "--slots", "2000",
      "--seed", "5", "--out", "a.csv"],
     "a.manifest.json",
     {"policy", "K", "p1", "p2", "lambda1", "lambda2", "slots", "mode"} | CHANNEL_PARAMS, 5),
    (["verify-chain", "--channel", "strong_mpr", "--K", "1", "--slots", "2000",
      "--out", "a.csv"],
     "a.manifest.json", {"K", "p1", "p2", "slots"} | CHANNEL_PARAMS, 42),
    (["figure", "--channel", "strong_mpr", "--K-list", "1", "--step", "0.1", "--out", "fig"],
     "fig/manifest.json", {"K_list", "step", "variant"} | CHANNEL_PARAMS, None),
]


@pytest.mark.parametrize("argv,manifest_name,keys,seed", MANIFEST_CASES,
                         ids=[case[0][0] for case in MANIFEST_CASES])
def test_manifest_params(tmp_path, argv, manifest_name, keys, seed):
    argv = [str(tmp_path / a) if a in ("a.csv", "fig") else a for a in argv]
    assert run_cli(*argv) == 0
    manifest = json.loads((tmp_path / manifest_name).read_text())
    params = manifest["params"]
    assert set(params) == keys
    assert not {"out", "func", "command"} & set(params)
    assert manifest["seed"] == seed
    if "channel" in params:
        assert params["channel"] == "strong_mpr"
        assert params["q_solo.1.1"] == 0.8


def test_channel_loaded_once(tmp_path, monkeypatch):
    import ramcast.cli as cli

    specs = []
    real = cli.load_channel
    monkeypatch.setattr(cli, "load_channel", lambda spec: specs.append(spec) or real(spec))
    assert run_cli("figure", "--channel", "strong_mpr", "--K-list", "1", "--step", "0.1",
                   "--out", tmp_path / "fig") == 0
    assert specs == ["strong_mpr"]


def test_figure_k_list_must_be_integers(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["figure", "--channel", "strong_mpr", "--K-list", "1,a", "--out", "unused"])
    assert exc.value.code == 2
    assert "--K-list" in capsys.readouterr().err


def test_figure_k_list_must_name_a_k(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["figure", "--channel", "strong_mpr", "--K-list", ",", "--out", "unused"])
    assert exc.value.code == 2
    assert "--K-list" in capsys.readouterr().err


@pytest.mark.parametrize("k_list", ["0", "65", "1,65"])
def test_figure_k_list_out_of_range_writes_nothing(tmp_path, capsys, k_list):
    out = tmp_path / "fig"
    with pytest.raises(SystemExit) as exc:
        main(["figure", "--channel", "strong_mpr", "--K-list", k_list, "--step", "0.1",
              "--out", str(out)])
    assert exc.value.code == 2
    assert "--K-list: K must be in [1, 64]" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv, message",
    [
        (["figure", "--channel", "strong_mpr", "--step", "0.5", "--out", "new/fig"],
         "grid step must be in (0, 0.1]"),
        (["rankdist", "--K", "0", "--max-j", "3", "--out", "new/r/x.csv"],
         "K must be in [1, 64]"),
    ],
)
def test_failing_command_writes_nothing(tmp_path, monkeypatch, capsys, argv, message):
    # The command fails before it resolves --out, so no directory is made.
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("RAMCAST_OUT_DIR", raising=False)
    assert main(argv) == 1
    assert message in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_rankdist_rejects_negative_max_j(tmp_path, capsys):
    out = tmp_path / "rd.csv"
    assert run_cli("rankdist", "--K", "3", "--max-j", "-1", "--out", out) == 1
    assert "ramcast: error: --max-j must be >= 0" in capsys.readouterr().err
    assert not out.exists()


def test_sim_rejects_nan_arrival_rate(capsys):
    assert run_cli("sim", "--channel", "strong_mpr", "--p1", "0.5", "--p2", "0.5",
                   "--mode", "arrivals", "--lambda1", "nan", "--slots", "100") == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "ramcast: error: lambda1=nan" in captured.err


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--lambda1", "1.5", "--lambda2", "inf"], "lambda1=1.5 outside [0, 1]"),
        (["--lambda2", "inf"], "lambda2=inf outside [0, 1]"),
        (["--seed", "-1"], "seed must be an integer >= 0, got -1"),
    ],
)
def test_sim_rejects_bad_rate_or_seed(capsys, flags, message):
    assert run_cli("sim", "--channel", "strong_mpr", "--p1", "0.5", "--p2", "0.5",
                   "--mode", "arrivals", "--slots", "100", *flags) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"ramcast: error: {message}" in captured.err


def test_figure_k_list_repeats_computed_once(tmp_path, capsys):
    out = tmp_path / "fig"
    assert run_cli("figure", "--channel", "strong_mpr", "--K-list", "1,1",
                   "--step", "0.1", "--out", out) == 0
    assert "wrote 4 files" in capsys.readouterr().out
    manifest = json.loads((out / "manifest.json").read_text())
    assert sorted(manifest["outputs"]) == sorted(
        ["capacity.csv", "retrans.csv", "rlc_K1.csv", "plot_figure.py"]
    )
    assert manifest["params"]["K_list"] == [1]


def test_byte_identical_reruns(tmp_path):
    outs = []
    for rep in ("a", "b"):
        out = tmp_path / f"cap_{rep}.csv"
        run_cli("capacity", "--channel", "strong_mpr", "--step", "0.1", "--out", out)
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    outs = []
    for rep in ("a", "b"):
        out = tmp_path / f"sim_{rep}.csv"
        run_cli("sim", "--channel", "strong_mpr", "--p1", "0.4", "--p2", "0.6",
                "--slots", "20000", "--seed", "3", "--out", out)
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_out_dir_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("RAMCAST_OUT_DIR", str(tmp_path))
    assert run_cli("rankdist", "--K", "2", "--max-j", "6", "--out", "nested/rd.csv") == 0
    assert (tmp_path / "nested" / "rd.csv").exists()


def test_channel_config_file(tmp_path):
    from ramcast.channel import weak_mpr

    cfg = tmp_path / "chan.json"
    cfg.write_text(json.dumps(weak_mpr().as_dict()))
    out = tmp_path / "cap.csv"
    assert run_cli("capacity", "--channel", cfg, "--step", "0.1", "--out", out) == 0
    ref = tmp_path / "ref.csv"
    run_cli("capacity", "--channel", "weak_mpr", "--step", "0.1", "--out", ref)
    assert out.read_bytes() == ref.read_bytes()


@pytest.mark.parametrize(
    "edit, message",
    [
        # A trailing comma, reported where the decoder stopped.
        (lambda text: text[:-1] + ",}", "invalid JSON: Expecting property name enclosed in "
         "double quotes: line 1 column "),
        (lambda text: text.replace("0.8,", "true,", 1), "q_solo.1.1=True is not a number"),
        (lambda text: text[:-1] + ', "q_joint.2.2": 0.1}', "channel key 'q_joint.2.2' repeated"),
    ],
    ids=["trailing-comma", "boolean", "repeated-key"],
)
def test_bad_json_channel_is_a_clean_error(tmp_path, capsys, edit, message):
    from ramcast.channel import weak_mpr

    cfg = tmp_path / "chan.json"
    cfg.write_text(edit(json.dumps(weak_mpr().as_dict())))
    assert run_cli("capacity", "--channel", cfg, "--step", "0.1", "--out", tmp_path / "c.csv") == 1
    err = capsys.readouterr().err
    assert err.startswith("ramcast: error: ") and message in err
    assert "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["chan.json"]


def test_channel_with_dead_link_is_an_error(tmp_path, capsys):
    from ramcast.channel import weak_mpr

    # q_solo = q_joint = 0 on a link breaks the strict q_solo > q_joint
    # rule, and no config key waives it.
    values = weak_mpr().as_dict()
    values.update({"q_solo.1.1": 0.0, "q_joint.1.1": 0.0, "relax_zero_joint": True})
    cfg = tmp_path / "chan.json"
    cfg.write_text(json.dumps(values))
    out = tmp_path / "cap.csv"
    assert run_cli("capacity", "--channel", cfg, "--step", "0.1", "--out", out) == 1
    assert "q_solo[1][1]=0.0 must strictly exceed q_joint[1][1]=0.0" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["chan.json"]


def test_check_quick_passes(capsys):
    assert main(["check", "--quick"]) == 0
    lines = capsys.readouterr().out.splitlines()
    # Only the verdicts: no output of the commands the checks run.
    assert all(ln.startswith(("PASS", "FAIL")) for ln in lines)
    assert len(lines) == 8
    assert all(ln.startswith("PASS") for ln in lines)
    assert any(ln.startswith("PASS stability-closure:") for ln in lines)
    assert any(ln.startswith("PASS retrans-oracle: 8 channel/p") for ln in lines)


@pytest.mark.parametrize(
    "statuses, code",
    [(("PASS", "XFAIL"), 0), (("PASS", "FAIL", "XFAIL"), 1), (("XPASS",), 1)],
)
def test_check_exit_status(monkeypatch, capsys, statuses, code):
    # An expected failure does not fail the run; any FAIL does, and so does
    # an expected failure that passes.
    import ramcast.checks
    from ramcast.checks import CheckResult

    results = [
        CheckResult(f"c{n}", s.endswith("PASS"), "detail", xfail_reason="known" if s[0] == "X" else "")
        for n, s in enumerate(statuses)
    ]
    monkeypatch.setattr(ramcast.checks, "run_checks", lambda quick: results)
    assert main(["check"]) == code
    captured = capsys.readouterr()
    assert captured.out.splitlines() == [f"{s} c{n}: detail" for n, s in enumerate(statuses)]
    assert captured.err.count("is expected to fail: known") == 1


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "ramcast" in capsys.readouterr().out
