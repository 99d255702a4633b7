import os

import pytest

from blockboot.harness import ReferenceCache

CACHE_PATH = os.path.join(os.path.dirname(__file__), "_ref_cache.json")


@pytest.fixture(scope="session")
def ref_cache():
    """Disk-backed cache of reference simulations, shared across the session.

    Keys embed the full simulation settings and the code fingerprint (numpy and scipy
    versions, hash of the code a reference value runs), so stale entries cannot
    be returned; delete ``tests/_ref_cache.json`` to force recomputation.
    """
    return ReferenceCache(CACHE_PATH)
