"""Pluggable crypto backends: a pure-Python reference oracle and a fast path.

Every symmetric-cipher operation on the checkpoint hot path (envelope
sealing, MEE page sealing, the SGX-v2 migratable-page stream), every
RSA signature (quotes, attestation reports, the image key's channel
transcript) and the RSA modular exponentiations (key generation's
Miller-Rabin witnesses, signature verification, prime recovery) go
through one :class:`CryptoBackend`.  Two implementations exist:

* ``reference`` — this repository's from-scratch ciphers, invoked exactly
  as the original call sites did (fresh cipher object per operation),
  CRT signing in Python and builtin ``pow``.  It is the correctness
  oracle: slow, obvious, test-vector-verified.
* ``fast`` — byte-identical output, produced cheaply: cipher objects are
  cached per key instead of rebuilt per page, and when the optional
  ``cryptography`` package is importable the AES-CTR / AES-CBC / RC4
  work and RSA signing are delegated to OpenSSL.  Without
  ``cryptography`` the fast backend still wins by amortizing key
  schedules and batching XORs, and signs with the reference CRT code.
  Modular exponentiation calls OpenSSL's ``BN_mod_exp`` through
  :mod:`ctypes` in the ``libcrypto`` the interpreter's own ``_hashlib``
  links, so it needs no ``cryptography``; ``FastBackend.modexp_engine``
  says whether that library loaded.

Diffie-Hellman exponentiations stay inline ``pow`` calls in their
modules, outside the backend.

The backend changes *wall-clock* cost only.  Virtual (modelled) time is
charged by :class:`repro.sim.costs.CostModel` per algorithm and is
identical under both backends — as are all wire bytes, journal entries
and enclave state, which ``tests/crypto/test_backend_oracle.py`` and
``tests/integration/test_backend_differential.py`` prove.

Selection: ``REPRO_CRYPTO_BACKEND=reference|fast`` (default ``fast``),
or programmatically via :func:`set_backend` / :func:`use_backend`.
"""

from __future__ import annotations

import ctypes
import os
from contextlib import contextmanager
from typing import Callable, Iterator

from repro.crypto.aes import Aes128
from repro.crypto.des import Des
from repro.crypto.modes import cbc_decrypt, cbc_encrypt, ctr_process, pkcs7_pad, pkcs7_unpad
from repro.crypto.rc4 import Rc4
from repro.errors import CryptoError

BACKEND_ENV = "REPRO_CRYPTO_BACKEND"
BACKEND_NAMES = ("reference", "fast")

_COUNTER_LIMIT = 1 << 64

try:  # optional accelerator; never a hard dependency
    from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes as _cg_modes

    try:  # moved to `decrepit` in cryptography >= 43
        from cryptography.hazmat.decrepit.ciphers.algorithms import ARC4 as _CgArc4
    except ImportError:  # pragma: no cover - older cryptography layouts
        _CgArc4 = getattr(algorithms, "ARC4", None)
    from cryptography.hazmat.primitives.asymmetric.padding import PKCS1v15
    from cryptography.hazmat.primitives.asymmetric.rsa import (
        RSAPrivateNumbers,
        RSAPublicNumbers,
    )
    from cryptography.hazmat.primitives.asymmetric.utils import NoDigestInfo

    _HAVE_CRYPTOGRAPHY = True
except ImportError:  # pragma: no cover - stdlib-only environments
    Cipher = algorithms = _cg_modes = _CgArc4 = None
    _HAVE_CRYPTOGRAPHY = False

#: RSA CRT components ``(p, q, d mod p-1, d mod q-1, q^-1 mod p)``.
Crt = tuple[int, int, int, int, int]


class CryptoBackend:
    """Uniform cipher and signing interface the hot paths call into.

    All methods are deterministic functions of their inputs; the two
    implementations below must agree byte-for-byte on every one.
    """

    name = "abstract"

    # RC4 has no nonce; callers bind context into the stream key themselves.
    def rc4(self, stream_key: bytes, data: bytes) -> bytes:
        raise NotImplementedError

    def des_ctr(self, key8: bytes, nonce: bytes, data: bytes, first_counter: int = 0) -> bytes:
        raise NotImplementedError

    def aes_ctr(self, key16: bytes, nonce: bytes, data: bytes, first_counter: int = 0) -> bytes:
        raise NotImplementedError

    def aes_cbc_encrypt(self, key16: bytes, iv: bytes, data: bytes) -> bytes:
        raise NotImplementedError

    def aes_cbc_decrypt(self, key16: bytes, iv: bytes, data: bytes) -> bytes:
        raise NotImplementedError

    def rsa_sign(self, n: int, e: int, d: int, crt: Crt, digest: bytes) -> bytes:
        """``pow(m, d, n)`` for ``m = pad_digest(digest)`` (PKCS#1 v1.5
        type-1 padding without a DigestInfo), as ``n``'s byte length.

        The caller has checked that ``crt`` belongs to ``(n, e, d)`` and
        that the digest leaves at least 8 bytes of padding.
        """
        raise NotImplementedError

    def modexp(self, base: int, exp: int, mod: int) -> int:
        """Exactly ``pow(base, exp, mod)``, for any arguments ``pow`` takes."""
        raise NotImplementedError


class ReferenceBackend(CryptoBackend):
    """The original pure-Python call sites, verbatim: the oracle."""

    name = "reference"

    def rc4(self, stream_key: bytes, data: bytes) -> bytes:
        return Rc4(stream_key).process(data)

    def des_ctr(self, key8: bytes, nonce: bytes, data: bytes, first_counter: int = 0) -> bytes:
        return ctr_process(Des(key8), nonce, data, first_counter)

    def aes_ctr(self, key16: bytes, nonce: bytes, data: bytes, first_counter: int = 0) -> bytes:
        return ctr_process(Aes128(key16), nonce, data, first_counter)

    def aes_cbc_encrypt(self, key16: bytes, iv: bytes, data: bytes) -> bytes:
        return cbc_encrypt(Aes128(key16), iv, data)

    def aes_cbc_decrypt(self, key16: bytes, iv: bytes, data: bytes) -> bytes:
        return cbc_decrypt(Aes128(key16), iv, data)

    def rsa_sign(self, n: int, e: int, d: int, crt: Crt, digest: bytes) -> bytes:
        return _crt_sign(n, crt, digest, self.modexp)

    def modexp(self, base: int, exp: int, mod: int) -> int:
        return pow(base, exp, mod)


def pad_digest(digest: bytes, modulus_bytes: int) -> int:
    """EMSA-style padding: 0x00 0x01 FF..FF 0x00 digest."""
    padding_len = modulus_bytes - len(digest) - 3
    if padding_len < 8:
        raise ValueError("modulus too small for padded digest")
    padded = b"\x00\x01" + b"\xff" * padding_len + b"\x00" + digest
    return int.from_bytes(padded, "big")


def _crt_sign(
    n: int, crt: Crt, digest: bytes, modexp: Callable[[int, int, int], int]
) -> bytes:
    """Two half-size exponentiations mod ``p`` and ``q`` recombined
    (Garner): the same bytes as ``pow(m, d, n)``, about three times faster."""
    size = (n.bit_length() + 7) // 8
    m = pad_digest(digest, size)
    p, q, dp, dq, q_inv = crt
    s_p = modexp(m, dp, p)
    s_q = modexp(m, dq, q)
    return (s_q + q * ((q_inv * (s_p - s_q)) % p)).to_bytes(size, "big")


class _KeyedCache:
    """A small bounded cache of cipher objects keyed by key material.

    Key schedules (AES round keys, DES PC-1/PC-2 subkeys, OpenSSL's RSA
    key setup) dominate the per-call cost when the payload is a single
    4 KB page or one digest; the hot paths reuse a handful of long-lived
    keys, so a tiny cache removes the rebuild entirely.  The oldest entry
    is evicted first past ``max_entries``.
    """

    def __init__(self, factory, max_entries: int = 128) -> None:
        self._factory = factory
        self._max = max_entries
        self._entries: dict[object, object] = {}

    def get(self, key):
        cipher = self._entries.get(key)
        if cipher is None:
            if len(self._entries) >= self._max:
                self._entries.pop(next(iter(self._entries)))
            cipher = self._factory(key)
            self._entries[key] = cipher
        return cipher


class FastBackend(CryptoBackend):
    """Byte-identical to the reference, built for throughput.

    AES-CTR equivalence with OpenSSL: the reference builds counter blocks
    ``nonce || big-endian-64(first_counter + i)`` for an 8-byte nonce, and
    OpenSSL's CTR mode increments the whole 128-bit block — identical as
    long as the low 64 bits never wrap, which :meth:`aes_ctr` checks and
    otherwise falls back to the reference construction.
    """

    name = "fast"

    def __init__(self) -> None:
        self._aes = _KeyedCache(Aes128)
        self._des = _KeyedCache(Des)
        self._rsa = _KeyedCache(_openssl_rsa_key)
        self._arc4_broken = not _HAVE_CRYPTOGRAPHY or _CgArc4 is None
        self._bn = _OpenSslBignum.load()

    # ---------------------------------------------------------------- rc4
    def rc4(self, stream_key: bytes, data: bytes) -> bytes:
        if not self._arc4_broken and len(stream_key) * 8 in _CgArc4.key_sizes:
            try:
                encryptor = Cipher(_CgArc4(stream_key), mode=None).encryptor()
                return encryptor.update(data)
            except Exception:
                # Some OpenSSL builds compile RC4 out; remember and fall back.
                self._arc4_broken = True
        stream = Rc4(stream_key).keystream(len(data))
        return _xor(data, stream)

    # ---------------------------------------------------------------- des
    def des_ctr(self, key8: bytes, nonce: bytes, data: bytes, first_counter: int = 0) -> bytes:
        # OpenSSL has no single-DES CTR; amortize the key schedule instead.
        return ctr_process(self._des.get(key8), nonce, data, first_counter)

    # ---------------------------------------------------------------- aes
    def aes_ctr(self, key16: bytes, nonce: bytes, data: bytes, first_counter: int = 0) -> bytes:
        n_blocks = (len(data) + 15) // 16
        if (
            _HAVE_CRYPTOGRAPHY
            and len(nonce) == 8
            and 0 <= first_counter
            and first_counter + n_blocks < _COUNTER_LIMIT
        ):
            initial = nonce + first_counter.to_bytes(8, "big")
            encryptor = Cipher(algorithms.AES(key16), _cg_modes.CTR(initial)).encryptor()
            return encryptor.update(data)
        return ctr_process(self._aes.get(key16), nonce, data, first_counter)

    def aes_cbc_encrypt(self, key16: bytes, iv: bytes, data: bytes) -> bytes:
        if _HAVE_CRYPTOGRAPHY:
            padded = pkcs7_pad(data, 16)
            encryptor = Cipher(algorithms.AES(key16), _cg_modes.CBC(iv)).encryptor()
            return encryptor.update(padded) + encryptor.finalize()
        return cbc_encrypt(self._aes.get(key16), iv, data)

    def aes_cbc_decrypt(self, key16: bytes, iv: bytes, data: bytes) -> bytes:
        if _HAVE_CRYPTOGRAPHY:
            if len(data) % 16 != 0:
                raise CryptoError("ciphertext length is not a multiple of block size")
            decryptor = Cipher(algorithms.AES(key16), _cg_modes.CBC(iv)).decryptor()
            padded = decryptor.update(data) + decryptor.finalize()
            return pkcs7_unpad(padded, 16)
        return cbc_decrypt(self._aes.get(key16), iv, data)

    # ---------------------------------------------------------------- rsa
    def rsa_sign(self, n: int, e: int, d: int, crt: Crt, digest: bytes) -> bytes:
        # PKCS#1 v1.5 signing is deterministic, so OpenSSL's blinded CRT
        # returns exactly the reference bytes.
        if _HAVE_CRYPTOGRAPHY:
            return self._rsa.get((n, e, d, crt)).sign(digest, PKCS1v15(), NoDigestInfo())
        return _crt_sign(n, crt, digest, self.modexp)

    # ------------------------------------------------------------- modexp
    @property
    def modexp_engine(self) -> str:
        """``"openssl"`` when :meth:`modexp` reaches ``BN_mod_exp``,
        ``"python"`` when ``libcrypto`` could not be loaded."""
        return "python" if self._bn is None else "openssl"

    def modexp(self, base: int, exp: int, mod: int) -> int:
        # Montgomery multiplication needs an odd modulus; everything else
        # pow() defines (inverses, even or tiny moduli) stays with pow().
        if self._bn is not None and base >= 0 and exp >= 0 and mod >= 3 and mod & 1:
            return self._bn.mod_exp(base, exp, mod)
        return pow(base, exp, mod)


#: The libcrypto soname Python's ``_hashlib`` and ``_ssl`` link against
#: with OpenSSL 3; loading it by name reuses the already mapped library.
_LIBCRYPTO_SONAME = "libcrypto.so.3"


class _OpenSslBignum:
    """``BN_mod_exp`` from ``libcrypto``, called through :mod:`ctypes`."""

    def __init__(self, lib: ctypes.CDLL) -> None:
        ptr, num = ctypes.c_void_p, ctypes.c_int
        for fn, argtypes, restype in (
            (lib.BN_CTX_new, [], ptr),
            (lib.BN_CTX_free, [ptr], None),
            (lib.BN_new, [], ptr),
            (lib.BN_clear_free, [ptr], None),
            (lib.BN_bin2bn, [ctypes.c_char_p, num, ptr], ptr),
            (lib.BN_bn2binpad, [ptr, ctypes.c_char_p, num], num),
            (lib.BN_mod_exp, [ptr, ptr, ptr, ptr, ptr], num),
        ):
            fn.argtypes, fn.restype = argtypes, restype
        self._lib = lib

    @classmethod
    def load(cls) -> "_OpenSslBignum | None":
        """The bignum functions, or None when ``libcrypto`` cannot be loaded."""
        try:
            return cls(ctypes.CDLL(_LIBCRYPTO_SONAME))
        except (OSError, AttributeError):  # no such library, or no BN_* symbols
            return None

    def mod_exp(self, base: int, exp: int, mod: int) -> int:
        """``pow(base, exp, mod)`` for ``base, exp >= 0`` and odd ``mod >= 3``."""
        lib = self._lib
        size = (mod.bit_length() + 7) // 8
        ctx = lib.BN_CTX_new()
        result = lib.BN_new()
        operands = []
        try:
            if not ctx or not result:
                raise CryptoError("OpenSSL bignum allocation failed")
            for value in (base, exp, mod):
                raw = value.to_bytes((value.bit_length() + 7) // 8, "big")
                bn = lib.BN_bin2bn(raw, len(raw), None)
                if not bn:
                    raise CryptoError("OpenSSL BN_bin2bn failed")
                operands.append(bn)
            if lib.BN_mod_exp(result, *operands, ctx) != 1:
                raise CryptoError("OpenSSL BN_mod_exp failed")
            out = ctypes.create_string_buffer(size)
            if lib.BN_bn2binpad(result, out, size) != size:
                raise CryptoError("OpenSSL BN_bn2binpad failed")
            return int.from_bytes(out.raw, "big")
        finally:
            for bn in operands:
                lib.BN_clear_free(bn)
            lib.BN_clear_free(result)  # both free functions accept NULL
            lib.BN_CTX_free(ctx)


def _openssl_rsa_key(numbers: tuple[int, int, int, Crt]):
    n, e, d, (p, q, dp, dq, q_inv) = numbers
    # The CRT components were derived from (n, e, d) and checked, so
    # OpenSSL's slow key validation would only repeat that work.
    return RSAPrivateNumbers(p, q, d, dp, dq, q_inv, RSAPublicNumbers(e, n)).private_key(
        unsafe_skip_rsa_key_validation=True
    )


def _xor(data: bytes, stream: bytes) -> bytes:
    """Batched XOR of two equal-length byte strings."""
    if not data:
        return b""
    n = len(data)
    return (int.from_bytes(data, "big") ^ int.from_bytes(stream, "big")).to_bytes(n, "big")


# ---------------------------------------------------------------- registry
_ACTIVE: CryptoBackend | None = None


def make_backend(name: str) -> CryptoBackend:
    """Construct a fresh backend by name."""
    if name == "reference":
        return ReferenceBackend()
    if name == "fast":
        return FastBackend()
    raise CryptoError(f"unknown crypto backend: {name!r} (expected one of {BACKEND_NAMES})")


def get_backend() -> CryptoBackend:
    """The active backend; first use reads ``REPRO_CRYPTO_BACKEND``."""
    global _ACTIVE
    if _ACTIVE is None:
        _ACTIVE = make_backend(os.environ.get(BACKEND_ENV, "fast"))
    return _ACTIVE


def set_backend(backend: CryptoBackend | str | None) -> CryptoBackend | None:
    """Install a backend (by instance or name); returns the previous one.

    ``None`` resets to unselected so the next :func:`get_backend` call
    re-reads the environment.
    """
    global _ACTIVE
    previous = _ACTIVE
    if backend is None:
        _ACTIVE = None
    elif isinstance(backend, str):
        _ACTIVE = make_backend(backend)
    else:
        _ACTIVE = backend
    return previous


@contextmanager
def use_backend(backend: CryptoBackend | str) -> Iterator[CryptoBackend]:
    """Temporarily switch backends (tests and the differential harness)."""
    previous = set_backend(backend)
    try:
        yield get_backend()
    finally:
        set_backend(previous)
