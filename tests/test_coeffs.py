"""Coefficient fields: primality of the modulus."""

import time

import pytest

from tcbounds.cli import EXIT_PINCHED, EXIT_USAGE, main
from tcbounds.coeffs import PrimeField, is_prime, parse_field


def trial_division(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def test_is_prime_matches_trial_division():
    # includes the Carmichael numbers 561, 1105, 1729, 2465, 2821, 6601, 8911
    assert [n for n in range(10 ** 4) if is_prime(n)] == [
        n for n in range(10 ** 4) if trial_division(n)
    ]


def test_large_mersenne_prime_is_fast(capsys):
    p = 2 ** 61 - 1
    start = time.perf_counter()
    assert parse_field(f"zp:{p}") == PrimeField(p)
    assert time.perf_counter() - start < 1.0
    assert main(["zcl", "--n", "2", "--m", "2", "--field", f"zp:{p}"]) == EXIT_PINCHED
    assert "zero_divisor_cuplength = 1" in capsys.readouterr().out


# 3825123056546413051 = 149491 * 747451 * 34233211 is a strong pseudoprime to
# every prime base up to 31, so only base 37 rejects it
@pytest.mark.parametrize("n", [(2 ** 31 - 1) ** 2, 3215031751, 3825123056546413051],
                         ids=["mersenne-square", "strong-pseudoprime-2357",
                              "strong-pseudoprime-to-31"])
def test_composites_rejected(n):
    assert not is_prime(n)
    with pytest.raises(ValueError, match="not prime"):
        PrimeField(n)


def test_modulus_beyond_two_to_the_64_is_usage_error(capsys):
    code = main(["zcl", "--n", "2", "--m", "2", "--field", "zp:18446744073709551629"])
    assert code == EXIT_USAGE
    assert "2^64" in capsys.readouterr().err
