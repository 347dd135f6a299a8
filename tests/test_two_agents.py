"""The shipped two-agent docking config's `run` outputs are byte-identical to
pinned digests.

`configs/docking/environment_two_agents.yml` draws the second deputy's
start per episode, so unlike the one-agent run the three CSVs differ.
"""

import hashlib

from envforge.cli import main as cli_main

from conftest import CONFIG_DIR

# `run --seed 7 --episodes 3` on configs/docking/environment_two_agents.yml
RUN_SEED_7 = {
    "episode_0.csv": "25b98f537a1e656a0e60fe16a82e35c0d9e4e339ad0c7ad4e8a2f17e71fd61f3",
    "episode_1.csv": "eed01b7c921d9565c3bb0a90bb10221f878fe362de5d87c16a03f9ace4d9cab3",
    "episode_2.csv": "dea90331997e1be8e0b6af56e53f7f2b86b9ac7895db5d413effa1f17dea4e3d",
    "run_config.json": "ea3e8433fd9c0809726b32b723d86aa378a8b929094b301f303d8b93ad12300e",
}


def test_two_agent_docking_run_seed_7(tmp_path, capsys):
    out = tmp_path / "run"
    env = CONFIG_DIR / "docking" / "environment_two_agents.yml"
    assert cli_main(["run", "--env", str(env), "--seed", "7", "--episodes", "3", "--out", str(out)]) == 0
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in RUN_SEED_7}
    assert digests == RUN_SEED_7
