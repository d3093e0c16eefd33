"""CRT signing against the textbook ``pow(m, d, n)`` oracle."""

import pytest

from repro.crypto import rsa
from repro.crypto.hashes import sha256
from repro.crypto.rsa import RsaPrivateKey, generate_rsa_keypair
from repro.errors import CryptoError
from repro.sim.rng import DeterministicRng

MESSAGES = (b"", b"m", b"quote body" * 7, bytes(range(256)))


def _keys(bits, count):
    return [
        generate_rsa_keypair(DeterministicRng(f"crt-oracle/{bits}/{i}"), bits)
        for i in range(count)
    ]


@pytest.fixture(scope="module")
def keys():
    # 512 bits is the size of the gnupg workload's key.
    return _keys(1024, 32) + _keys(512, 4)


def oracle_sign(key, message):
    """Full-modulus signature, padded independently of the module."""
    size = (key.n.bit_length() + 7) // 8
    digest = sha256(message)
    padded = b"\x00\x01" + b"\xff" * (size - len(digest) - 3) + b"\x00" + digest
    return pow(int.from_bytes(padded, "big"), key.d, key.n).to_bytes(size, "big")


def test_sign_equals_full_modexp(keys):
    for key in keys:
        for message in MESSAGES:
            assert key.sign(message) == oracle_sign(key, message)


def test_rebuilt_key_recovers_its_primes_and_signs_identically(keys, monkeypatch):
    # An empty memo forces every rebuilt key to factor n from (e, d).
    monkeypatch.setattr(rsa, "_CRT_MEMO", {})
    for key in keys:
        rebuilt = RsaPrivateKey(key.n, key.e, key.d)
        for message in MESSAGES[:2]:
            assert rebuilt.sign(message) == oracle_sign(key, message)


@pytest.mark.parametrize(
    "mismatch",
    [
        lambda key: RsaPrivateKey(key.n, key.e, key.d + 2),
        lambda key: RsaPrivateKey(key.n, key.e, 1),
        lambda key: RsaPrivateKey(key.n, key.e, 0),
        lambda key: RsaPrivateKey(key.n, 3, key.d),
    ],
    ids=["d+2", "d=1", "d=0", "other-e"],
)
def test_exponent_not_matching_the_key_raises(keys, mismatch):
    with pytest.raises(CryptoError):
        mismatch(keys[0]).sign(b"m")


def test_memo_is_bounded(keys, monkeypatch):
    monkeypatch.setattr(rsa, "_CRT_MEMO", {})
    monkeypatch.setattr(rsa, "_CRT_MEMO_MAX", 2)
    for key in keys[:4]:
        RsaPrivateKey(key.n, key.e, key.d).sign(b"m")
    assert len(rsa._CRT_MEMO) == 2
    # An evicted key recovers its primes again and still signs right.
    assert keys[0].sign(b"m") == oracle_sign(keys[0], b"m")
