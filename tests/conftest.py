import pytest

from howechar import thetachar


@pytest.fixture(autouse=True)
def fresh_theta_instances():
    """Clear theta_character's per-process memo, so that no test sees an
    instance compiled, or a compile counted, by an earlier one."""
    thetachar._theta_character.cache_clear()
