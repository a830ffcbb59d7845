from pathlib import Path

import pytest
from hypothesis import settings

from memgift.gift import GIFT64, GIFT128, load_kat_file

DATA_DIR = Path(__file__).parent / "data"

# No per-example deadline: a slow shared machine must not fail a property.
settings.register_profile("memgift", deadline=None)
settings.load_profile("memgift")


# Spellings of n characters that int(text, 16) takes although they are not
# ASCII hex digits alone: a sign, `_` between digits, non-ASCII digits.
BAD_HEX = {
    "plus": lambda n: "+" + "0" * (n - 1),
    "minus": lambda n: "-" + "0" * (n - 1),
    "underscore": lambda n: "0" * (n - 2) + "_1",
    "arabic-indic": lambda n: "\u0663" * n,
}


@pytest.fixture(params=sorted(BAD_HEX))
def bad_hex(request):
    """A function giving one malformed hex spelling of n characters."""
    return BAD_HEX[request.param]


@pytest.fixture(scope="session")
def kat64():
    return load_kat_file(DATA_DIR / "gift64.kat")


@pytest.fixture(scope="session")
def kat128():
    return load_kat_file(DATA_DIR / "gift128.kat")


@pytest.fixture(params=[GIFT64, GIFT128], ids=["gift64", "gift128"])
def variant(request):
    return request.param
