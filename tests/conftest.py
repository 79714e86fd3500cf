import numpy as np
import pytest

from termnet.census import build_class_table


@pytest.fixture(scope="session")
def class_table():
    return build_class_table()


@pytest.fixture()
def rng():
    return np.random.default_rng(20201109)
