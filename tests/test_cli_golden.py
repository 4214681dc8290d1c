"""Byte-identity gate for the command-line front end.

Each case runs one ``ramcast`` command line with ``OUT`` standing for a
fresh directory.  It pins the exit code, the sha256 of stdout and of
stderr (with that directory written back as ``OUT``), the sha256 of
every file written, and for each manifest the sha256 of its JSON
without ``duration_s``, the one field that varies between identical
runs.  Recorded before the command bookkeeping moved into ``main``; a
refactor of the CLI must reproduce every entry.  ``rates-rlc-out`` was
re-recorded when the point rates became p_own * g_n(p_other): its four
rates moved by at most 4e-16 relative.  The paper-chain CSVs of
``figure`` and ``region-rlc-paper`` were re-recorded when the published
rows took the exact chain's reception weights, and ``verify-chain`` when
its mu_b also became p_own * g_n(p_other): every rate moved by at most
4.7e-16 relative.  ``rankdist`` was re-recorded when the pmf became a
difference of survival probabilities: f_3(10) moved by one ulp, from
0.006795935332775116 to 0.006795935332775117.  ``capacity-fine`` (10,201
rows at step 0.01) was recorded before CSV floats were rendered by a
vectorized kernel instead of ``repr``, to pin many more float cells.
``figure``, ``rates-rlc-out``, ``region-rlc-paper``, ``region-rlc-exact``
and ``verify-chain`` were re-recorded when the chain's expected cycle
length became a sum of per-level sums: each state's visits kept their
bits, every rate moved by at most 3.4e-16 relative and no zero moved
(``verify-chain``'s ``rel_delta``, a difference of two rates, by 1.5e-14).
``check-quick`` pins the verdicts and details of ``check --quick`` (Jensen
gaps, smallest margins, overshoots); it writes no file of its own.
"""
import hashlib
import json

import pytest

from ramcast.cli import main

CASES = {
    "check-quick": ["check", "--quick"],
    "capacity": ["capacity", "--channel", "strong_mpr", "--step", "0.1", "--out", "OUT/cap.csv"],
    "capacity-fine": [
        "capacity", "--channel", "weak_mpr", "--step", "0.01", "--out", "OUT/cap.csv",
    ],
    "rates-retrans": [
        "rates", "--channel", "strong_mpr", "--policy", "retrans", "--p1", "0.5", "--p2", "0.5",
    ],
    "rates-rlc-out": [
        "rates", "--channel", "weak_mpr", "--policy", "rlc", "--K", "2", "--p1", "0.6",
        "--p2", "0.4", "--variant", "exact", "--out", "OUT/rates.csv",
    ],
    "region-capacity": [
        "region", "--channel", "strong_mpr", "--kind", "capacity", "--step", "0.1",
        "--out", "OUT/region.csv",
    ],
    "region-retrans": [
        "region", "--channel", "strong_mpr", "--kind", "retrans", "--step", "0.1",
        "--out", "OUT/region.csv",
    ],
    "region-rlc-paper": [
        "region", "--channel", "strong_mpr", "--kind", "rlc", "--K", "2", "--step", "0.1",
        "--out", "OUT/region.csv",
    ],
    "region-rlc-exact": [
        "region", "--channel", "strong_mpr", "--kind", "rlc", "--K", "2", "--step", "0.1",
        "--variant", "exact", "--out", "OUT/region.csv",
    ],
    "rankdist": ["rankdist", "--K", "3", "--max-j", "10", "--out", "OUT/rd.csv"],
    "sim-saturated": [
        "sim", "--channel", "weak_mpr", "--policy", "rlc", "--K", "2", "--p1", "0.5",
        "--p2", "0.5", "--slots", "20000", "--seed", "9", "--out", "OUT/sim.csv",
    ],
    "sim-arrivals": [
        "sim", "--channel", "strong_mpr", "--policy", "retrans", "--p1", "0.6", "--p2", "0.4",
        "--lambda1", "0.12", "--lambda2", "0.08", "--mode", "arrivals", "--slots", "20000",
        "--seed", "7", "--out", "OUT/sim.csv",
    ],
    "verify-chain": [
        "verify-chain", "--channel", "strong_mpr", "--K", "2", "--slots", "20000",
        "--out", "OUT/verify.csv",
    ],
    "figure": [
        "figure", "--channel", "strong_mpr", "--K-list", "1,2", "--step", "0.1",
        "--out", "OUT/fig",
    ],
    "error-unknown-channel": [
        "rates", "--channel", "bogus", "--policy", "retrans", "--p1", "0.5", "--p2", "0.5",
    ],
    "error-rlc-k0": [
        "rates", "--channel", "strong_mpr", "--policy", "rlc", "--K", "0", "--p1", "0.5",
        "--p2", "0.5",
    ],
    "error-grid-step": [
        "capacity", "--channel", "strong_mpr", "--step", "0.5", "--out", "OUT/cap.csv",
    ],
}

GOLDEN = {
    "check-quick": {
        "rc": 0,
        "stdout": "4c832527aa1c502d328b2e0d5f3f22fc51726a554e760e433b73386b3bd2e92c",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    },
    "capacity": {
        "rc": 0,
        "stdout": "52a6f44d07f91d7d6c13148d7488d8a502ca8f93f875729ba18567e2976c8a4c",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "cap.csv": "309bb9020346d2a67657abd0bc0e34577d16590db0c334ef92b7c4c9c94bcca0",
        "cap.manifest.json": "df6130b47420c10e39d781ef8178b77e4afeb4ae3f9b48ecc06ad9eaf6470ed0",
    },
    "capacity-fine": {
        "rc": 0,
        "stdout": "97b519978499500c70b79679293591111d07d902e8fbddac5422e8994f7e7cf0",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "cap.csv": "43ff8328bb426538538c2cf1f4ea07fd4ba8277d4f51140c63eeea937322174f",
        "cap.manifest.json": "2062c8b516047fc12c9658cf209a0d86be3a27f73bd72125a7b8b7d2a18a9011",
    },
    "error-grid-step": {
        "rc": 1,
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "stderr": "67703487a95390fad3a57ce315e9226f552bc98bd29e94175418e494ddcdc803",
    },
    "error-rlc-k0": {
        "rc": 1,
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "stderr": "5f9e21f7d4bc2219125e5fd6ed40d67164782e2f62c5bc84c5343679dfe5cecd",
    },
    "error-unknown-channel": {
        "rc": 1,
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "stderr": "a0a04a9718ed886be691a86486ef3951663b896464a81f5ef97fee8f8c5fc8f4",
    },
    "figure": {
        "rc": 0,
        "stdout": "a99eccb4e8431400afa1edbba393cc73e8a60cd889790a5d82ed741907ed9e35",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "fig/capacity.csv": "efe9d7aee9908b4d68950550fe3764c1672cf776776f1ffdd869d01f841747bb",
        "fig/manifest.json": "43bf88d8f16d79a6a3897b7d260d9d11b434c7ce462f1851325c3f59d083ce9c",
        "fig/plot_figure.py": "1d57edfa17e1e98608ad9449a0021233cd6152fcf567d7d91e52e8e64be919f7",
        "fig/retrans.csv": "ae49b008562f45b208ab9e1d2b13d635a4f6cafa2c40a74d0939ca86c8ffce6b",
        "fig/rlc_K1.csv": "dbb16fa9f46c208f5b677d5601660d6a157bebdce83c46b6d756cfd2e9c11bf5",
        "fig/rlc_K2.csv": "85bcf237aa44406ed4d5479a01a59794a350a92069e0b99281278c6e23246afc",
    },
    "rankdist": {
        "rc": 0,
        "stdout": "faa5123f36b726ed7ec2c8fc13d853f25311807903121f809690e62878d5aeb2",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "rd.csv": "cf1d4b829d1b8f6088bf1a01a3c4c9106088bd5d078d3a59289235285f0a5c88",
        "rd.manifest.json": "3977745d864932f7fcf561b7ab919a54fbe120e688ae0f2077a6f458c189efaa",
    },
    "rates-retrans": {
        "rc": 0,
        "stdout": "cbdb7a2550a737ab24d1aa1632a8ce039ef70e23597aa714f360bc1a2b5820ca",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    },
    "rates-rlc-out": {
        "rc": 0,
        "stdout": "e7db17eb350ae91265692c8c652af90452403053af59e8145a9abcf41da5c117",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "rates.csv": "e7db17eb350ae91265692c8c652af90452403053af59e8145a9abcf41da5c117",
        "rates.manifest.json": "7426664a89eaa014aa36f2b8e30348e1ccd4efee7b404b05b4b7c930c838d1b7",
    },
    "region-capacity": {
        "rc": 0,
        "stdout": "be5db2b760feef333252a108d0bed333a6a8ea951becc74cf983420666c9c2d7",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "region.csv": "efe9d7aee9908b4d68950550fe3764c1672cf776776f1ffdd869d01f841747bb",
        "region.manifest.json": "b9c2bb2bee1a362afdb699c5bca1d7a38584b428f5d0ea77b418e06fea340481",
    },
    "region-retrans": {
        "rc": 0,
        "stdout": "be5db2b760feef333252a108d0bed333a6a8ea951becc74cf983420666c9c2d7",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "region.csv": "ae49b008562f45b208ab9e1d2b13d635a4f6cafa2c40a74d0939ca86c8ffce6b",
        "region.manifest.json": "57680b82e7cab730ebd8bf8733f6aac7e7719bad71a59a70fbdd8e0777c3a0a0",
    },
    "region-rlc-exact": {
        "rc": 0,
        "stdout": "be5db2b760feef333252a108d0bed333a6a8ea951becc74cf983420666c9c2d7",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "region.csv": "f9d5f5af187a36e23be8bc9e947eadeb84fecf99eca044013f1ce48ef2157561",
        "region.manifest.json": "900b684c52a0c79f52ab76134f9649185dd2cd3131e8fe052c964fba83131fc3",
    },
    "region-rlc-paper": {
        "rc": 0,
        "stdout": "be5db2b760feef333252a108d0bed333a6a8ea951becc74cf983420666c9c2d7",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "region.csv": "85bcf237aa44406ed4d5479a01a59794a350a92069e0b99281278c6e23246afc",
        "region.manifest.json": "16dffd769ef1f4782efbd6601ce02ad7121b3ac177992dbe542ce30b563e582f",
    },
    "sim-arrivals": {
        "rc": 0,
        "stdout": "0795f322d33a6b276a61f28f8abae1b3ac55ebbb67b2bf54a79bf4656683d8ec",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "sim.csv": "0795f322d33a6b276a61f28f8abae1b3ac55ebbb67b2bf54a79bf4656683d8ec",
        "sim.manifest.json": "51042a9fa5e5615d27dfa287af6bd5aa1826f929f84b42f34b1229a1184be390",
    },
    "sim-saturated": {
        "rc": 0,
        "stdout": "0d7a62391d9823330057a35a24bbcf8c7f985d5f201f0017da3547db5f3b92de",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "sim.csv": "0d7a62391d9823330057a35a24bbcf8c7f985d5f201f0017da3547db5f3b92de",
        "sim.manifest.json": "4c07246de2bc0731bd974b697ba1d68d0572a857a0e61711a660beee3e8380f7",
    },
    "verify-chain": {
        "rc": 0,
        "stdout": "77e1838ee367028ac4cee52ac6dcc9df8f80a68ba04c273a63568f787a3d9435",
        "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "verify.csv": "21caff8d65aaac85bb6aeb17d4609c52f643f823252b7c41874b7e78fdf27a9d",
        "verify.manifest.json": "501bc54a63d95e4774fbd302e3812e599408f40616b1aa4ddace892df1767929",
    },
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _record(name: str, tmp_path, capsys) -> dict:
    """Run one case under ``tmp_path`` and digest everything it produced."""
    rc = main([a.replace("OUT", str(tmp_path)) for a in CASES[name]])
    captured = capsys.readouterr()
    record = {
        "rc": rc,
        "stdout": _sha(captured.out.replace(str(tmp_path), "OUT").encode()),
        "stderr": _sha(captured.err.replace(str(tmp_path), "OUT").encode()),
    }
    for path in sorted(p for p in tmp_path.rglob("*") if p.is_file()):
        data = path.read_bytes()
        if path.name.endswith("manifest.json"):
            manifest = json.loads(data)
            del manifest["duration_s"]
            data = json.dumps(manifest, indent=2, sort_keys=True).encode()
        record[path.relative_to(tmp_path).as_posix()] = _sha(data)
    return record


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_matches_golden(name, tmp_path, capsys):
    assert _record(name, tmp_path, capsys) == GOLDEN[name]
