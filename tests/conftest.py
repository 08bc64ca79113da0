import pytest

from deltareg import elliptic


def elliptic_memos():
    """Every memo that `deltareg.elliptic` defines: its `lru_cache` functions, not those
    it imports (such as `quadrature.gauss_legendre`)."""
    return [f for f in vars(elliptic).values()
            if hasattr(f, "cache_clear") and f.__module__ == elliptic.__name__]


@pytest.fixture
def clear_memos():
    """A function that empties every memo of `deltareg.elliptic`, so a solve after it
    runs cold whatever ran before it in the session."""
    def clear():
        for memo in elliptic_memos():
            memo.cache_clear()
    return clear
