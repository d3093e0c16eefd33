"""RSA signatures for attestation and channel authentication.

Used by: the Quoting Enclave (quote signatures), the attestation service
(verification-report signatures), the enclave image keypair of §V-B
("We put a pair of keys into the enclave image. The public key is in
plaintext while the private key is in ciphertext."), and enclave owners.

Key generation uses Miller-Rabin with 1024-bit moduli — small by modern
deployment standards but honest in structure, and fast enough that tests
can generate fresh keys.  Signing is full-block EMSA-style padding over a
SHA-256 digest, the same bytes as ``pow(m, d, n)``.  The active crypto
backend computes it (:meth:`repro.crypto.backend.CryptoBackend.rsa_sign`):
the reference backend with the Chinese Remainder Theorem in Python, the
fast one with OpenSSL.  Both need the CRT components, which live in a
small memo keyed on ``(n, e, d)``: key generation fills it for free, and
a key rebuilt from ``(n, e, d)`` alone (the in-enclave image key)
recovers ``p`` and ``q`` from its exponents once.  Verification accepts
only a signature below ``n`` (RFC 8017 §5.2.2).

The big exponentiations — each Miller-Rabin witness, verification's
``s^e mod n`` and prime recovery — go through
:meth:`~repro.crypto.backend.CryptoBackend.modexp`: builtin ``pow`` under
the reference backend, OpenSSL's ``BN_mod_exp`` under the fast one.  A
modexp has exactly one correct result, so every primality decision and
every RNG draw, and hence every key, is the same under both.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from repro.crypto.backend import Crt, get_backend, pad_digest
from repro.crypto.hashes import sha256
from repro.errors import CryptoError, SignatureError
from repro.sim.rng import DeterministicRng

_SMALL_PRIMES = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
    71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137, 139,
)


def _is_probable_prime(n: int, rng: DeterministicRng, rounds: int = 24) -> bool:
    """Miller-Rabin probabilistic primality test."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    modexp = get_backend().modexp
    for _ in range(rounds):
        a = rng.randint(2, n - 2)
        x = modexp(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = pow(x, 2, n)
            if x == n - 1:
                break
        else:
            return False
    return True


def _generate_prime(bits: int, rng: DeterministicRng) -> int:
    """Generate a random probable prime with the top two bits set."""
    while True:
        candidate = rng.getrandbits(bits) | (0b11 << (bits - 2)) | 1
        if _is_probable_prime(candidate, rng):
            return candidate


@dataclass(frozen=True)
class RsaPublicKey:
    """RSA public key (n, e); verifies signatures."""

    n: int
    e: int

    @property
    def modulus_bytes(self) -> int:
        return (self.n.bit_length() + 7) // 8

    def verify(self, message: bytes, signature: bytes) -> None:
        """Raise :class:`SignatureError` unless ``signature`` is valid."""
        if len(signature) != self.modulus_bytes:
            raise SignatureError("signature length mismatch")
        s = int.from_bytes(signature, "big")
        if s >= self.n:
            # s and s + k*n share a residue; only the one below n is the
            # signature, or one valid signature yields several.
            raise SignatureError("signature representative out of range")
        expected = pad_digest(sha256(message), self.modulus_bytes)
        if get_backend().modexp(s, self.e, self.n) != expected:
            raise SignatureError("RSA signature verification failed")

    def is_valid(self, message: bytes, signature: bytes) -> bool:
        """Boolean convenience wrapper around :meth:`verify`."""
        try:
            self.verify(message, signature)
        except SignatureError:
            return False
        return True

    def fingerprint(self) -> bytes:
        """Stable identifier for this key (hash of n || e)."""
        return sha256(self.n.to_bytes(self.modulus_bytes, "big") + self.e.to_bytes(4, "big"))


@dataclass(frozen=True)
class RsaPrivateKey:
    """RSA private key; signs SHA-256 digests."""

    n: int
    e: int
    d: int

    @property
    def public(self) -> RsaPublicKey:
        return RsaPublicKey(self.n, self.e)

    @property
    def modulus_bytes(self) -> int:
        return (self.n.bit_length() + 7) // 8

    def sign(self, message: bytes) -> bytes:
        """Sign ``message``; raises :class:`CryptoError` if ``d`` does not
        belong to ``(n, e)``."""
        digest = sha256(message)
        pad_digest(digest, self.modulus_bytes)  # ValueError before any key work
        crt = _crt_components(self.n, self.e, self.d)
        return get_backend().rsa_sign(self.n, self.e, self.d, crt, digest)


#: CRT components ``(p, q, d mod p-1, d mod q-1, q^-1 mod p)`` by
#: ``(n, e, d)``; oldest entry evicted first past ``_CRT_MEMO_MAX``.
_CRT_MEMO: dict[tuple[int, int, int], Crt] = {}
_CRT_MEMO_MAX = 1024
#: Bases tried when factoring ``n`` from ``(e, d)``.  A base fails to
#: split ``n`` about half the time, so a hundred failures in a row
#: happen, in practice, only when ``d`` is wrong.
_RECOVERY_BASES = range(2, 102)


def _crt_components(n: int, e: int, d: int) -> Crt:
    crt = _CRT_MEMO.get((n, e, d))
    if crt is None:
        primes = _recover_primes(n, e, d)
        if primes is None:
            raise CryptoError("RSA private exponent does not match the public key")
        crt = _remember_crt(n, e, d, *primes)
    return crt


def _remember_crt(n: int, e: int, d: int, p: int, q: int) -> Crt:
    if len(_CRT_MEMO) >= _CRT_MEMO_MAX:
        del _CRT_MEMO[next(iter(_CRT_MEMO))]
    crt = (p, q, d % (p - 1), d % (q - 1), pow(q, -1, p))
    _CRT_MEMO[(n, e, d)] = crt
    return crt


def _recover_primes(n: int, e: int, d: int) -> tuple[int, int] | None:
    """Factor ``n`` from its exponents (NIST SP 800-56B, Appendix C).

    ``k = e*d - 1`` is a multiple of the group exponent, so for most
    bases ``g`` the chain ``g^r, g^2r, ..., g^k = 1`` (``k = 2^t r``, ``r``
    odd) passes a square root of 1 other than ±1, whose ``gcd`` with
    ``n`` is a prime.  Returns None if ``d`` does not belong to ``(n, e)``.
    """
    k = e * d - 1
    if k <= 0:
        return None
    t = (k & -k).bit_length() - 1
    r = k >> t
    modexp = get_backend().modexp
    for g in _RECOVERY_BASES:
        y = modexp(g, r, n)
        if y in (1, n - 1):
            continue
        for _ in range(t):
            x = y * y % n
            if x == n - 1:
                break
            if x == 1:
                p = gcd(y - 1, n)
                q = n // p
                return (p, q) if k % (p - 1) == 0 and k % (q - 1) == 0 else None
            y = x
        else:
            return None  # g^k != 1: k is no multiple of the group exponent
    return None


#: Keygen memo: deterministic seeds always produce the same key, so the
#: testbed (which builds many machines/images per test) skips repeat work.
_KEYGEN_CACHE: dict[tuple[str, int], RsaPrivateKey] = {}


def generate_rsa_keypair(rng: DeterministicRng, bits: int = 1024) -> RsaPrivateKey:
    """Generate an RSA keypair with modulus of roughly ``bits`` bits.

    Results are memoized by the generator's seed: the same seed would
    deterministically reproduce the same primes anyway.
    """
    cache_key = (str(getattr(rng, "seed", "")), bits)
    if cache_key[0] and cache_key in _KEYGEN_CACHE:
        return _KEYGEN_CACHE[cache_key]
    keypair = _generate_rsa_keypair_uncached(rng, bits)
    if cache_key[0]:
        _KEYGEN_CACHE[cache_key] = keypair
    return keypair


def _generate_rsa_keypair_uncached(rng: DeterministicRng, bits: int) -> RsaPrivateKey:
    e = 65537
    while True:
        p = _generate_prime(bits // 2, rng)
        q = _generate_prime(bits // 2, rng)
        if p == q:
            continue
        phi = (p - 1) * (q - 1)
        if phi % e == 0:
            continue
        n, d = p * q, pow(e, -1, phi)
        _remember_crt(n, e, d, p, q)
        return RsaPrivateKey(n=n, e=e, d=d)
