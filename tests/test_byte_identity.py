"""Reference outputs are byte-identical to pinned digests.

The digests were taken from the shipped docking configs before the step was
compiled (referenced values bound per episode, unbounded spaces unchecked), so
a change that alters any output byte of these commands fails here.  Docking
only: its arithmetic is exact, while cart-pole's goes through libm ``sin`` and
``cos``, whose last bits may differ between platforms.
"""

import hashlib

import pytest

from envforge.cli import main as cli_main

from conftest import CONFIG_DIR

DOCKING = CONFIG_DIR / "docking"

# `run --seed 7 --episodes 3` on configs/docking/environment.yml; every
# episode starts from the same constant state, so the three CSVs are equal
RUN_SEED_7 = {
    "episode_0.csv": "e267b67f1847b82f3e6396b658e750e0395c85e4cce2e04adb59200113bdc669",
    "episode_1.csv": "e267b67f1847b82f3e6396b658e750e0395c85e4cce2e04adb59200113bdc669",
    "episode_2.csv": "e267b67f1847b82f3e6396b658e750e0395c85e4cce2e04adb59200113bdc669",
    "run_config.json": "4550534040b3b6d13d4bd53aad8697ff98b8276a790a9583d071bb9113cf01d6",
}

# the README docking `pipeline`, serial and with --workers 2
PIPELINE = {
    "artifact_far_120m.jsonl": "6727ad412a297f741492f485f663901c4b48790129bc4d7146c120828657ae4f",
    "artifact_far_150m.jsonl": "9023009e0c0d32abae9bd22450638c1231a5e4ea5df07497ba7b534451a6d3eb",
    "artifact_near_10m.jsonl": "ba22c483192bc9592146a12d385a5eb88bd8586760b4c0d5e4261f6507657c93",
    "artifact_near_15m.jsonl": "be8da708232d28a277e928d0e62107c30abf5a8ae58e05a8d28a16686dd6d8d1",
    "artifact_near_5m.jsonl": "643c6634be427dfcfa0d12038eb5cee47fcf225503a2885edb987a50bc8047f2",
    "manifest.json": "be476abf9a975852dcb187f49d77f7fa59347e7e5b0f5d8617b07509b7dabb31",
    "metrics.json": "4758cd1814866395da9c2151bac682d9086696ffe6905ad2508eeacf7ed0fe16",
}


def digests(directory, names) -> dict[str, str]:
    return {name: hashlib.sha256((directory / name).read_bytes()).hexdigest() for name in names}


def test_docking_run_seed_7(tmp_path, capsys):
    out = tmp_path / "run"
    argv = ["run", "--env", str(DOCKING / "environment.yml"), "--seed", "7", "--episodes", "3", "--out", str(out)]
    assert cli_main(argv) == 0
    assert digests(out, RUN_SEED_7) == RUN_SEED_7


@pytest.mark.parametrize("workers", ["1", "2"])
def test_readme_docking_pipeline(tmp_path, capsys, workers):
    out = tmp_path / "eval"
    argv = [
        "pipeline",
        "--env", str(DOCKING / "environment_short.yml"),
        "--cases", str(DOCKING / "cases.yml"),
        "--metrics", str(DOCKING / "metrics.yml"),
        "--viz", str(DOCKING / "viz.yml"),
        "--workers", workers,
        "--out", str(out),
    ]
    assert cli_main(argv) == 0
    assert digests(out, PIPELINE) == PIPELINE
