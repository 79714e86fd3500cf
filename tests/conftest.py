import numpy as np
import pytest

from termnet.census import build_class_table


@pytest.fixture(scope="session", autouse=True)
def _class_table_cache_dir(tmp_path_factory):
    # the CLI reads and writes its class-table cache under $TERMNET_CACHE,
    # else under the home directory; keep it inside the test session
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("TERMNET_CACHE", str(tmp_path_factory.mktemp("termnet-cache")))
        yield


@pytest.fixture(scope="session")
def class_table():
    # built fresh so tests never depend on the on-disk cache
    return build_class_table(cache_dir=None)


@pytest.fixture()
def rng():
    return np.random.default_rng(20201109)
