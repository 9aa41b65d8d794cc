import pytest

from modrec import yangmills


@pytest.fixture(autouse=True)
def _cold_gauge_memos():
    """Every test starts with empty gauge memos, so none passes on a series
    an earlier test left in the prefix memo."""
    yangmills.clear_caches()
    yield
