import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")  # before numpy is first imported

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from ghmctune.models import gaussian_model  # noqa: E402
from ghmctune.saia import default_map  # noqa: E402


@pytest.fixture(scope="session", autouse=True)
def _private_map_cache(tmp_path_factory):
    """Build the coefficient map into a session directory, never a user cache.

    Set before the first ``default_map()`` call; demos run as subprocesses
    inherit it.
    """
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("GHMCTUNE_CACHE", str(tmp_path_factory.mktemp("ghmctune-cache")))
        default_map.cache_clear()
        yield
        default_map.cache_clear()


@pytest.fixture(scope="session")
def saia_map():
    return default_map()


@pytest.fixture(scope="session")
def std_gauss_1d():
    return gaussian_model(np.eye(1), name="g1")


@pytest.fixture(scope="session")
def std_gauss_2d():
    return gaussian_model(np.eye(2), name="g2")
