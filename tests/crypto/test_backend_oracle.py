"""Differential oracle: the fast crypto backend ≡ the pure-Python reference.

The fast backend (cached cipher objects, optional OpenSSL delegation via
``cryptography``) must be a *drop-in* for the reference implementation:
byte-identical ciphertext for every algorithm, key, nonce, payload size
(empty and non-block-aligned included) and CTR counter offset.  Property
tests drive both backends over randomized inputs and demand equality;
envelope tests additionally prove the two interoperate (seal on one,
open on the other) and agree on tamper rejection.  RSA signatures from
every backend, OpenSSL's and the pure-Python fallback of ``fast``
included, equal the textbook ``pow(m, d, n)``, and ``modexp`` equals
builtin ``pow`` on every backend, so key generation yields the same keys.
"""

from __future__ import annotations

from contextlib import contextmanager
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto import backend as backend_module
from repro.crypto.authenc import CIPHER_NAMES, open_envelope, seal_envelope
from repro.crypto.backend import (
    BACKEND_NAMES,
    FastBackend,
    ReferenceBackend,
    get_backend,
    make_backend,
    set_backend,
    use_backend,
)
from repro.crypto.hashes import sha256
from repro.crypto.keys import SymmetricKey
from repro.crypto.rsa import (
    RsaPrivateKey,
    _generate_rsa_keypair_uncached,
    generate_rsa_keypair,
)
from repro.errors import CryptoError, IntegrityError
from repro.sim.rng import DeterministicRng

REF = ReferenceBackend()
FAST = FastBackend()

payloads = st.binary(min_size=0, max_size=3000)
keys = st.binary(min_size=16, max_size=48)
counters = st.integers(min_value=0, max_value=2**62)


class TestPrimitiveParity:
    @settings(max_examples=40, deadline=None)
    @given(key=st.binary(min_size=1, max_size=64), data=payloads)
    def test_rc4(self, key, data):
        assert FAST.rc4(key, data) == REF.rc4(key, data)

    @settings(max_examples=40, deadline=None)
    @given(key=keys, nonce=st.binary(min_size=8, max_size=8), data=payloads, offset=counters)
    def test_aes_ctr_with_offsets(self, key, nonce, data, offset):
        key16 = key[:16]
        assert FAST.aes_ctr(key16, nonce, data, offset) == REF.aes_ctr(key16, nonce, data, offset)

    @settings(max_examples=15, deadline=None)
    @given(key=keys, nonce=st.binary(min_size=4, max_size=4), data=st.binary(max_size=400),
           offset=st.integers(min_value=0, max_value=2**30))
    def test_des_ctr_with_offsets(self, key, nonce, data, offset):
        key8 = key[:8]
        assert FAST.des_ctr(key8, nonce, data, offset) == REF.des_ctr(key8, nonce, data, offset)

    @settings(max_examples=40, deadline=None)
    @given(key=keys, iv=st.binary(min_size=16, max_size=16), data=payloads)
    def test_aes_cbc_roundtrip(self, key, iv, data):
        key16 = key[:16]
        ct_fast = FAST.aes_cbc_encrypt(key16, iv, data)
        assert ct_fast == REF.aes_cbc_encrypt(key16, iv, data)
        # Decrypt across backends: each opens the other's ciphertext.
        assert FAST.aes_cbc_decrypt(key16, iv, ct_fast) == data
        assert REF.aes_cbc_decrypt(key16, iv, ct_fast) == data

    def test_ctr_keystream_offset_equals_midstream_slice(self):
        """Encrypting from block offset k must equal the tail of a longer
        stream — the property chunked/resumed encryption relies on."""
        key16, nonce = b"k" * 16, b"n" * 8
        whole = REF.aes_ctr(key16, nonce, b"\x00" * 160)
        for k in (1, 3, 9):
            tail = FAST.aes_ctr(key16, nonce, b"\x00" * (160 - 16 * k), first_counter=k)
            assert tail == whole[16 * k :]

    def test_empty_payloads(self):
        assert FAST.rc4(b"k", b"") == b""
        assert FAST.aes_ctr(b"k" * 16, b"n" * 8, b"") == b""
        assert FAST.des_ctr(b"k" * 8, b"n" * 4, b"") == b""

    def test_non_block_aligned_payloads(self):
        for n in (1, 15, 17, 31, 4095, 4097):
            data = bytes(range(256)) * (n // 256 + 1)
            data = data[:n]
            assert FAST.aes_ctr(b"k" * 16, b"n" * 8, data) == REF.aes_ctr(b"k" * 16, b"n" * 8, data)


class TestEnvelopeParity:
    @settings(max_examples=10, deadline=None)
    @given(
        algorithm=st.sampled_from(CIPHER_NAMES),
        key=st.binary(min_size=16, max_size=32),
        nonce=st.binary(min_size=8, max_size=16),
        plaintext=payloads,
        aad=st.binary(max_size=32),
    )
    def test_identical_envelopes_and_cross_open(self, algorithm, key, nonce, plaintext, aad):
        k = SymmetricKey(key.ljust(16, b"\x00"), "oracle")
        with use_backend(REF):
            env_ref = seal_envelope(k, plaintext, nonce, algorithm, aad=aad)
        with use_backend(FAST):
            env_fast = seal_envelope(k, plaintext, nonce, algorithm, aad=aad)
        assert env_ref.to_bytes() == env_fast.to_bytes()
        # Sealed under one backend, opened under the other.
        with use_backend(FAST):
            assert open_envelope(k, env_ref, aad=aad) == plaintext
        with use_backend(REF):
            assert open_envelope(k, env_fast, aad=aad) == plaintext

    @pytest.mark.parametrize("backend_name", BACKEND_NAMES)
    @pytest.mark.parametrize("algorithm", CIPHER_NAMES)
    def test_tamper_rejection(self, backend_name, algorithm):
        k = SymmetricKey(b"t" * 32, "tamper")
        with use_backend(backend_name):
            env = seal_envelope(k, b"payload" * 40, b"n" * 12, algorithm, aad=b"a")
            mangled = bytearray(env.to_bytes())
            mangled[-40] ^= 0x01  # flip a ciphertext byte
            from repro.crypto.authenc import Envelope

            with pytest.raises(IntegrityError):
                open_envelope(k, Envelope.from_bytes(bytes(mangled)), aad=b"a")
            with pytest.raises(IntegrityError):
                open_envelope(k, env, aad=b"wrong-aad")


# The seeded keys of test_rsa_crt.py: generated once per process.
RSA_KEYS = [
    generate_rsa_keypair(DeterministicRng(f"crt-oracle/{bits}/{i}"), bits)
    for bits, count in ((1024, 4), (512, 4))
    for i in range(count)
]


def textbook_sign(key, message):
    size = (key.n.bit_length() + 7) // 8
    digest = sha256(message)
    padded = b"\x00\x01" + b"\xff" * (size - len(digest) - 3) + b"\x00" + digest
    return pow(int.from_bytes(padded, "big"), key.d, key.n).to_bytes(size, "big")


SIGN_BACKENDS = ("reference", "fast", "fast-without-openssl")


@contextmanager
def signing_backend(name):
    with pytest.MonkeyPatch.context() as patch:
        if name == "fast-without-openssl":
            patch.setattr(backend_module, "_HAVE_CRYPTOGRAPHY", False)
        with use_backend(name.split("-")[0]):
            yield


@pytest.mark.parametrize("backend_name", SIGN_BACKENDS)
class TestRsaSignParity:
    @settings(max_examples=25, deadline=None)
    @given(key=st.sampled_from(RSA_KEYS), message=st.binary(max_size=200))
    def test_signature_is_textbook_modexp(self, backend_name, key, message):
        with signing_backend(backend_name):
            assert key.sign(message) == textbook_sign(key, message)

    def test_mismatched_exponent_raises_crypto_error(self, backend_name):
        key = RSA_KEYS[0]
        with signing_backend(backend_name), pytest.raises(CryptoError):
            RsaPrivateKey(key.n, key.e, key.d + 2).sign(b"m")

    def test_modulus_too_small_raises_value_error(self, backend_name):
        # 336 bits leave 42 bytes: 32 for the digest, 3 fixed, 7 of padding.
        key = generate_rsa_keypair(DeterministicRng("too-small"), 336)
        with signing_backend(backend_name), pytest.raises(ValueError):
            key.sign(b"m")


class TestRsaKeyCache:
    def test_openssl_key_cache_is_bounded(self):
        if not backend_module._HAVE_CRYPTOGRAPHY:
            pytest.skip("needs the cryptography package")
        fast = FastBackend()
        fast._rsa._max = 2
        with use_backend(fast):
            for key in RSA_KEYS:
                assert key.sign(b"m") == textbook_sign(key, b"m")
            assert len(fast._rsa._entries) == 2
            # An evicted key is rebuilt and still signs right.
            assert RSA_KEYS[0].sign(b"m") == textbook_sign(RSA_KEYS[0], b"m")
            assert len(fast._rsa._entries) == 2


MODEXP_BACKENDS = ("reference", "fast", "fast-without-libcrypto")


@contextmanager
def modexp_backend(name):
    """A fresh backend; ``fast-without-libcrypto`` cannot load OpenSSL."""
    with pytest.MonkeyPatch.context() as patch:
        if name == "fast-without-libcrypto":
            patch.setattr(backend_module, "_LIBCRYPTO_SONAME", "libcrypto-absent.so.0")
        backend = make_backend(name.split("-")[0])
        if name == "fast-without-libcrypto":
            assert backend.modexp_engine == "python"
        yield backend


def bit_sized(max_bits):
    """Integers whose bit length is drawn uniformly from 1..max_bits."""
    return st.integers(1, max_bits).flatmap(
        lambda bits: st.integers(1 << (bits - 1), (1 << bits) - 1)
    )


@pytest.mark.parametrize("backend_name", MODEXP_BACKENDS)
class TestModexpParity:
    @settings(max_examples=60, deadline=None)
    @given(base=bit_sized(2048), exp=bit_sized(2048), mod=bit_sized(2048))
    def test_equals_builtin_pow(self, backend_name, base, exp, mod):
        with modexp_backend(backend_name) as backend:
            assert backend.modexp(base, exp, mod) == pow(base, exp, mod)

    @pytest.mark.parametrize(
        "base, exp, mod",
        [
            (0, 5, 101),  # base 0
            (0, 0, 101),  # 0^0 = 1
            (7, 0, 101),  # exponent 0
            (101, 3, 101),  # base == mod
            (2**300 + 5, 65537, 2**255 - 19),  # base far above mod
            (12345, 6789, 1),  # mod 1
            (12345, 6789, 2),  # mod 2
            (12345, 6789, 2**128),  # even modulus
            (12345, 6789, 3 * 2**64),  # even modulus, odd factor
            (-5, 3, 101),  # negative base
            (3, -1, 101),  # negative exponent: the inverse
            (2**1023 + 1, 2**1024 - 1, 2**1024 - 105),  # full-size operands
        ],
    )
    def test_edge_cases(self, backend_name, base, exp, mod):
        with modexp_backend(backend_name) as backend:
            assert backend.modexp(base, exp, mod) == pow(base, exp, mod)


class TestKeygenIdentity:
    def test_every_backend_generates_the_reference_keys(self):
        # A modexp has one correct result, so every Miller-Rabin decision
        # and every RNG draw, and hence every key, must be the same.
        def keys(backend):
            with use_backend(backend):
                return [
                    _generate_rsa_keypair_uncached(
                        DeterministicRng(f"modexp-keygen/{bits}/{seed}"), bits
                    )
                    for bits in (512, 1024)
                    for seed in range(32)
                ]

        expected = keys(ReferenceBackend())
        for name in MODEXP_BACKENDS[1:]:
            with modexp_backend(name) as backend:
                assert keys(backend) == expected


class TestOpenSslModexp:
    @pytest.mark.parametrize("failing", ["BN_CTX_new", "BN_bin2bn", "BN_mod_exp", "BN_bn2binpad"])
    def test_bignum_failure_raises_and_frees(self, failing):
        """A failing ``BN_*`` call raises ``CryptoError``, and every bignum
        and context allocated for the call is freed."""
        live = set()
        handles = iter(range(1, 100))

        def alloc(*_args):
            handle = next(handles)
            live.add(handle)
            return handle

        def free(handle):
            live.discard(handle)

        functions = {
            "BN_CTX_new": alloc,
            "BN_CTX_free": free,
            "BN_new": alloc,
            "BN_clear_free": free,
            "BN_bin2bn": alloc,
            "BN_bn2binpad": lambda _bn, _out, size: size,
            "BN_mod_exp": lambda *_args: 1,
        }
        functions[failing] = lambda *_args: 0
        bignum = backend_module._OpenSslBignum(SimpleNamespace(**functions))
        with pytest.raises(CryptoError):
            bignum.mod_exp(3, 5, 7)
        assert live == set()


class TestRegistry:
    def test_unknown_backend_rejected(self):
        with pytest.raises(CryptoError):
            make_backend("turbo")

    def test_env_selection(self, monkeypatch):
        monkeypatch.setenv("REPRO_CRYPTO_BACKEND", "reference")
        previous = set_backend(None)
        try:
            assert get_backend().name == "reference"
        finally:
            set_backend(previous)

    def test_use_backend_restores(self):
        before = get_backend()
        with use_backend("reference") as b:
            assert b.name == "reference"
        assert get_backend() is before
