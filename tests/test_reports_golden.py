"""Golden json-lines reports: every shipped scenario under every command its
scheme supports, pinned by sha256 so that refactors keep reports byte-identical.

Trial counts are trimmed the way ``test_shipped_scenarios_run_clean`` trims
them. A command the scheme does not support must exit 1 with a scenario error.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import pytest

from qvote.cli import main

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
TRIM = {"swap_attack.ini": ("trials = 100000", "trials = 500")}

GOLDEN = {
    ("anticheat.ini", "run"): "0d1bebf7bef6adb182cc8c7faeb03f0dad61a7087473539b9c9d0c1b34a99cb6",
    ("anticheat.ini", "verify"): "7841cf206b626bccfda833cccc9efc30ba6bc739272d0c6e4f97200159fef9a6",
    ("broadcast.ini", "run"): "3868e5dc8cb3d5d33d3dd094053adbdde78351e83298265d8b63496032ab62d7",
    ("broadcast.ini", "verify"): "99819ba5acf4fb03c07ea1518ddf5cd8c82eeadcaf830f40afd82187072a593f",
    ("broadcast.ini", "sweep"): "f5f1682f08bf24622fbfb06bd442d2c5ac13f566987b9b18c6fbe8d2a6d685ac",
    ("cheater_attack.ini", "run"): "3a6fc7b926e1966863cf8f9aaea661ffc369736b1801ed1b6a66869a30233cd2",
    ("classical_eavesdrop.ini", "run"): "7a96a433e32314ebf07fde39419d5146bf046b31b21e6e90bff322f8fc481e3a",
    ("classical_eavesdrop.ini", "verify"): "514bb821964273d0503a9876952ba0ef86247c3ded327c552cb62ddabd7dfd7e",
    ("classical_eavesdrop.ini", "sweep"): "179b50bb333c92aa9e7e6581c5af7a68acbf5f5526610d95ab1cb3ca4cfb05cd",
    ("distributed.ini", "run"): "6a74e9c1428d3f8d6939a411c8a5d64a1565188587e208ddf0212f9b3948bbec",
    ("distributed.ini", "verify"): "fb22c9f11a0d9894ce8cee96428301b56e20dfa3b457810439a2cae751b2b4cd",
    ("distributed.ini", "sweep"): "59bec123e3b5a6ce42d246932d3b2cfabac0f0ffa9cb79a3c48eac5ec9d6cb3d",
    ("dolev.ini", "run"): "cc4d493a04ea81f10b4e228f595504798627c0fc107f8be6925e17fcf834141a",
    ("dolev.ini", "verify"): "9c2f58d0994bdb0f9f5db79efeaaf5c6a7876e1624a5948b1a15f6e930850189",
    ("dolev.ini", "sweep"): "20a85833e49cd6389db740cf21febeb26248b622bf68650e593a3f7d74205a34",
    # pass_probability is reported clamped to 1.0 (the Born sum is 1 + 4e-16)
    ("entangling_attack.ini", "run"): "2901fb48a04c32d7f0090259af8b1340fd51c579e70e3891db56176896e45e9b",
    ("mitm_attack.ini", "run"): "81c55474eaaf6e1280eb9c24b8a5c1872d403fc1594b75769085b82e5ff06e9c",
    ("mitm_attack.ini", "verify"): "56774d984ad96f4d19e3e491f31f01928b1a4feb2c6affe7018b246914d010c6",
    ("mitm_attack.ini", "sweep"): "09ac79698bafd4317cb39ae7a31fd61a948cab36953685906b61183b45667ef6",
    ("survey.ini", "run"): "c4f836f24773714ec1472ba7a91a7f3760e3f33c1426c8424a4976f2ba228881",
    ("survey.ini", "verify"): "41ca629278ed0fdab97985ac22401dd690de479213c895f3f28947267f3154b6",
    ("survey.ini", "sweep"): "fd4700cf09c651c3620d818e972822a2967e076909f23916a7590c7b268ca601",
    ("swap_attack.ini", "run"): "f984404eccd64c201a7e576a241bccc74a9777102ac79d12ec6e03852e8e84be",
    ("swap_attack.ini", "verify"): "9465a9c61b8c6c1fba1642d2ff53513a9cb142f4f133f743c1659c58b3647428",
    ("swap_attack.ini", "sweep"): "234feb9fdce6fd4b713a19c255aea3d38c6bfe83820c9646906c86faaf4a906e",
    ("traveling.ini", "run"): "7704e9a0aae5cd3769f84cff5374a4cacbc57b27af58edf4877fe473d5b8e80e",
    ("traveling.ini", "verify"): "662fccc95a0e6e764d5e47d1ff06c33df077bd35c2df5e93e5b8a746f01508e8",
    ("traveling.ini", "sweep"): "2d55c72abc8c5dd9fa64567c34729963c3ae7536df99ddb498563daeddcb94de",
}

CASES = [
    (f.name, command)
    for f in sorted(SCENARIOS.glob("*.ini"))
    for command in ("run", "verify", "sweep")
]


def test_every_shipped_scenario_is_covered():
    assert {name for name, _ in GOLDEN} == {name for name, _ in CASES}


@pytest.mark.parametrize("name,command", CASES)
def test_report_matches_golden(name, command, tmp_path, capsys):
    text = (SCENARIOS / name).read_text()
    if name in TRIM:
        text = text.replace(*TRIM[name])
    scenario = tmp_path / name
    scenario.write_text(text)
    out = tmp_path / "report.jsonl"
    code = main([command, str(scenario), "--format", "json-lines", "--out", str(out)])
    if (name, command) not in GOLDEN:
        assert code == 1 and capsys.readouterr().err.startswith("scenario error:")
        return
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN[(name, command)]
