from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

from pathpay import parse_network, parse_vot, run_scheme, solve_ue

settings.register_profile(
    "suite",
    deadline=None,
    max_examples=50,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")

REPO_DIR = Path(__file__).resolve().parent.parent
FIXTURE_DIR = REPO_DIR / "fixtures"


@pytest.fixture(scope="session")
def demo_network():
    return parse_network((FIXTURE_DIR / "network.json").read_text())


@pytest.fixture(scope="session")
def demo_vot():
    dist, M = parse_vot((FIXTURE_DIR / "vot.json").read_text())
    return dist, M


@pytest.fixture(scope="session")
def demo_run(demo_network, demo_vot):
    dist, M = demo_vot
    return run_scheme(demo_network, dist, M)


@pytest.fixture(scope="session")
def demo_ue(demo_network, demo_run):
    return solve_ue(demo_network, demo_run.paths)
