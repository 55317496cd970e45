import pytest

from circsing import polycyc

@pytest.fixture
def factor_limit(monkeypatch):
    """Install a ``polycyc.factorize`` (which ``divisors`` and the union
    ladder call) that fails the test on any n past the given limit: a
    refusal that needs no factoring must come before it."""
    real = polycyc.factorize

    def install(limit: int) -> None:
        def spy(n):
            assert n <= limit, f"factored n={n} past {limit}"
            return real(n)
        monkeypatch.setattr(polycyc, "factorize", spy)
    return install
