"""Small number-theoretic helpers shared by the lattice and arithmetic layers.

A smallest-prime-factor sieve is grown on demand up to a fixed cap of
2**20 entries, so no input allocates more than that.
"""

from functools import lru_cache

_SIEVE_CAP = 1 << 20  # the sieve holds at most _SIEVE_CAP + 1 entries
_spf = [0, 1]  # smallest prime factor; _spf[1] = 1 by convention
_primes = []  # the primes below len(_spf), ascending


def _grow_sieve(limit):
    global _spf, _primes
    limit = min(limit, _SIEVE_CAP)
    if limit < len(_spf):
        return
    size = min(max(limit + 1, 2 * len(_spf)), _SIEVE_CAP + 1)
    spf = list(range(size))
    p = 2
    while p * p < size:
        if spf[p] == p:
            for q in range(p * p, size, p):
                if spf[q] == q:
                    spf[q] = p
        p += 1
    _spf = spf
    _primes = [p for p in range(2, size) if spf[p] == p]


def factorize(n):
    """Prime factorization as a dict prime -> exponent.

    Up to the sieve cap the factors are read off the sieve.  Above it n is
    trial-divided by the sieve's primes, and the sieve is doubled only
    while the cofactor left may still be composite; a cofactor left above
    cap**2 once the sieve is full raises ValueError.
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    out = {}
    if n <= _SIEVE_CAP:
        _grow_sieve(n)
    else:
        tried = 0
        while True:
            for p in _primes[tried:]:
                if p * p > n:
                    break
                while n % p == 0:
                    out[p] = out.get(p, 0) + 1
                    n //= p
            # no sieve prime up to sqrt(n) divides n, so below len(_spf)**2 it is 1 or a prime
            if n < len(_spf) ** 2 or len(_spf) > _SIEVE_CAP:
                break
            tried = len(_primes)
            _grow_sieve(2 * len(_spf))
        if n >= len(_spf):
            if n > _SIEVE_CAP ** 2:
                raise ValueError(
                    f"cannot factor: cofactor {n} has no prime factor up to {_SIEVE_CAP}")
            out[n] = 1
            return out
    while n > 1:
        p = _spf[n]
        out[p] = out.get(p, 0) + 1
        n //= p
    return out


@lru_cache(maxsize=None)
def divisors(n):
    """Sorted tuple of the positive divisors of n."""
    ds = [1]
    for p, k in factorize(n).items():
        ds = [d * p ** e for d in ds for e in range(k + 1)]
    return tuple(sorted(ds))


def mobius_int(n):
    """Classical Mobius function: (-1)**m on squarefree products of m primes."""
    result = 1
    for _, k in factorize(n).items():
        if k > 1:
            return 0
        result = -result
    return result
