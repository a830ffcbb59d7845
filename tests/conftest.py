from pathlib import Path

import pytest
from hypothesis import settings

from memgift.gift import GIFT64, GIFT128, load_kat_file

DATA_DIR = Path(__file__).parent / "data"

# No per-example deadline: a slow shared machine must not fail a property.
settings.register_profile("memgift", deadline=None)
settings.load_profile("memgift")


@pytest.fixture(scope="session")
def kat64():
    return load_kat_file(DATA_DIR / "gift64.kat")


@pytest.fixture(scope="session")
def kat128():
    return load_kat_file(DATA_DIR / "gift128.kat")


@pytest.fixture(params=[GIFT64, GIFT128], ids=["gift64", "gift128"])
def variant(request):
    return request.param
