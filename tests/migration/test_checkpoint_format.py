"""Checkpoint format, sealing and the two-phase generation mechanics."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.keys import SymmetricKey
from repro.errors import IntegrityError
from repro.migration.checkpoint import (
    EnclaveCheckpoint,
    TcsState,
    open_checkpoint,
    seal_checkpoint,
)
from repro.migration.orchestrator import MigrationOrchestrator
from repro.serde import SerdeError, pack, unpack
from repro.sdk.host import WorkerSpec
from repro.sdk.image import FLAG_FREE, FLAG_SPIN

from tests.conftest import build_counter_app


def make_checkpoint(n_pages=3, seq=1):
    return EnclaveCheckpoint(
        image_name="img",
        code_id="code-v1",
        mrenclave=b"\xaa" * 32,
        sequence=seq,
        pages={0x1000 * (i + 1): bytes([i]) * 4096 for i in range(n_pages)},
        tcs_states=[TcsState(0, 0, FLAG_FREE), TcsState(1, 1, FLAG_SPIN)],
        skipped_pages=[0x9000],
    )


class TestCheckpointFormat:
    def test_bytes_roundtrip(self):
        ckpt = make_checkpoint()
        again = EnclaveCheckpoint.from_bytes(ckpt.to_bytes())
        assert again.pages == ckpt.pages
        assert again.tcs_states == ckpt.tcs_states
        assert again.skipped_pages == ckpt.skipped_pages
        assert again.sequence == ckpt.sequence
        assert again.mrenclave == ckpt.mrenclave

    def test_memory_bytes(self):
        assert make_checkpoint(n_pages=4).memory_bytes == 4 * 4096

    def test_tcs_state_lookup(self):
        ckpt = make_checkpoint()
        assert ckpt.tcs_state(1).cssa == 1
        from repro.errors import RestoreError

        with pytest.raises(RestoreError):
            ckpt.tcs_state(9)

    def test_seal_open_roundtrip(self):
        key = SymmetricKey(b"\x01" * 32, "k")
        env = seal_checkpoint(make_checkpoint(), key, b"n" * 16)
        opened = open_checkpoint(key, env)
        assert opened.pages == make_checkpoint().pages

    def test_sealed_is_confidential(self):
        key = SymmetricKey(b"\x01" * 32, "k")
        ckpt = make_checkpoint()
        ckpt.pages[0x1000] = b"TOP-SECRET-ACCOUNT-DATA!" * 100
        env = seal_checkpoint(ckpt, key, b"n" * 16)
        assert b"TOP-SECRET-ACCOUNT-DATA!" not in env.to_bytes()

    def test_wrong_key_rejected(self):
        env = seal_checkpoint(make_checkpoint(), SymmetricKey(b"\x01" * 32, "a"), b"n" * 16)
        with pytest.raises(IntegrityError):
            open_checkpoint(SymmetricKey(b"\x02" * 32, "b"), env)

    @pytest.mark.parametrize("algorithm", ["rc4", "des", "aes", "aes-ni"])
    def test_all_ciphers(self, algorithm):
        key = SymmetricKey(b"\x03" * 32, "k")
        env = seal_checkpoint(make_checkpoint(), key, b"n" * 16, algorithm)
        assert open_checkpoint(key, env).sequence == 1

    @given(st.integers(min_value=1, max_value=10))
    @settings(max_examples=10, deadline=None)
    def test_roundtrip_property(self, n_pages):
        ckpt = make_checkpoint(n_pages=n_pages)
        assert EnclaveCheckpoint.from_bytes(ckpt.to_bytes()).memory_bytes == ckpt.memory_bytes


def _legacy_to_bytes(ckpt: EnclaveCheckpoint) -> bytes:
    """The original all-JSON checkpoint serialization (pre-ECKPT2).

    Deliberately re-implemented here rather than imported: the point of
    the lock is that blobs with *this exact shape* — hex page keys, no
    magic, no ``storage_version`` field — keep parsing forever.
    """
    from repro.serde import pack

    return pack(
        {
            "image_name": ckpt.image_name,
            "code_id": ckpt.code_id,
            "mrenclave": ckpt.mrenclave,
            "sequence": ckpt.sequence,
            "pages": {f"{vaddr:x}": data for vaddr, data in ckpt.pages.items()},
            "tcs": [
                {"index": s.index, "cssa": s.cssa, "flag": s.local_flag}
                for s in ckpt.tcs_states
            ],
            "skipped": ckpt.skipped_pages,
        }
    )


class TestLegacyJsonFallback:
    """Regression lock for the pre-ECKPT2 read path.

    Checkpoints sealed before the binary format (and before the
    storage-handoff step added ``storage_version``) live in old journals
    and old snapshots; ``from_bytes`` must keep accepting them, with the
    absent storage field defaulting to 0 = "no storage constraint".
    """

    def test_legacy_blob_parses_with_default_storage_version(self):
        ckpt = make_checkpoint()
        again = EnclaveCheckpoint.from_bytes(_legacy_to_bytes(ckpt))
        assert again.pages == ckpt.pages
        assert again.tcs_states == ckpt.tcs_states
        assert again.skipped_pages == ckpt.skipped_pages
        assert again.sequence == ckpt.sequence
        assert again.mrenclave == ckpt.mrenclave
        assert again.storage_version == 0

    def test_legacy_sealed_envelope_opens(self):
        key = SymmetricKey(b"\x07" * 32, "legacy")
        from repro.crypto.authenc import seal_envelope

        env = seal_envelope(
            key, _legacy_to_bytes(make_checkpoint()), b"n" * 16, "aes",
            aad=b"enclave-ckpt",
        )
        assert open_checkpoint(key, env).sequence == 1

    def test_full_migration_over_legacy_serialization(self, testbed, monkeypatch):
        """A migration whose checkpoint travels in the legacy format must
        still restore and go live: the missing ``storage_version`` means
        the target skips the storage-freshness constraint, not that it
        refuses the blob."""
        monkeypatch.setattr(EnclaveCheckpoint, "to_bytes", _legacy_to_bytes)
        from repro.sdk import control

        app = build_counter_app(testbed, tag="legacy-wire")
        app.ecall_once(0, "incr", 9)
        app.library.control_call(control.storage_put, "note", "sealed rides along")
        result = MigrationOrchestrator(testbed).migrate_enclave(app)
        assert result.target_app.ecall_once(0, "read") == 9
        assert (
            result.target_app.library.control_call(control.storage_get, "note")
            == "sealed rides along"
        )


_DROP = object()


def _v2_with(**changes) -> bytes:
    """A valid v2 blob whose header fields are replaced (``_DROP``: removed)."""
    blob = make_checkpoint(n_pages=1).to_bytes()
    magic_len = len(b"ECKPT2\x00")
    header_len = int.from_bytes(blob[magic_len : magic_len + 4], "big")
    header = unpack(blob[magic_len + 4 : magic_len + 4 + header_len])
    for name, value in changes.items():
        if value is _DROP:
            del header[name]
        else:
            header[name] = value
    new_header = pack(header)
    tail = blob[magic_len + 4 + header_len :]
    return blob[:magic_len] + len(new_header).to_bytes(4, "big") + new_header + tail


class TestMalformedDecode:
    """Every wrongly shaped payload is refused with the typed SerdeError,
    never a bare TypeError/KeyError escaping from field access."""

    @pytest.mark.parametrize(
        "blob",
        [
            pytest.param(b"9", id="legacy-int"),
            pytest.param(b"[]", id="legacy-list"),
            pytest.param(b"null", id="legacy-null"),
            pytest.param(b'"x"', id="legacy-str"),
            pytest.param(b"{}", id="legacy-empty-dict"),
            pytest.param(pack({"pages": {"zz": b"x"}}), id="legacy-bad-page-address"),
            pytest.param(
                _legacy_to_bytes(make_checkpoint()).replace(b'"sequence":1', b'"sequence":"1"'),
                id="legacy-sequence-str",
            ),
            pytest.param(b"ECKPT2\x00" + (2).to_bytes(4, "big") + b"[]", id="v2-header-list"),
            pytest.param(_v2_with(page_index=_DROP), id="v2-no-page-index"),
            pytest.param(_v2_with(page_index=7), id="v2-page-index-int"),
            pytest.param(_v2_with(page_index=[7]), id="v2-page-entry-int"),
            pytest.param(_v2_with(page_index=[[0x1000]]), id="v2-page-entry-short"),
            pytest.param(_v2_with(page_index=[["0x1000", 4096]]), id="v2-page-vaddr-str"),
            pytest.param(_v2_with(page_index=[[0x1000, None]]), id="v2-page-length-none"),
            pytest.param(_v2_with(image_name=_DROP), id="v2-no-image-name"),
            pytest.param(_v2_with(mrenclave="aa"), id="v2-mrenclave-str"),
            pytest.param(_v2_with(tcs=[{"index": 0}]), id="v2-tcs-incomplete"),
            pytest.param(_v2_with(tcs=[3]), id="v2-tcs-int"),
            pytest.param(_v2_with(skipped=["x"]), id="v2-skipped-str"),
            pytest.param(_v2_with(storage_version="1"), id="v2-storage-version-str"),
        ],
    )
    def test_wrong_shape_raises_serde_error(self, blob):
        with pytest.raises(SerdeError):
            EnclaveCheckpoint.from_bytes(blob)

    def test_untouched_v2_blob_still_decodes(self):
        assert EnclaveCheckpoint.from_bytes(_v2_with()).sequence == 1


class TestTwoPhaseGeneration:
    def test_checkpoint_covers_all_readable_pages(self, testbed):
        app = build_counter_app(testbed, tag="cover")
        MigrationOrchestrator(testbed).checkpoint_enclave(app)
        result = app.library.last_checkpoint
        key_rt_pages = set(app.image.readable_reg_vaddrs())
        from repro.crypto.keys import SymmetricKey as SK

        # The checkpoint body length matches all readable REG pages.
        assert result.memory_bytes == len(key_rt_pages) * 4096

    def test_idle_workers_checkpoint_as_free(self, testbed):
        app = build_counter_app(testbed, tag="idle")
        MigrationOrchestrator(testbed).checkpoint_enclave(app)
        assert app.library.last_checkpoint.skipped_pages == 0

    def test_busy_worker_parks_before_dump(self, testbed):
        app = build_counter_app(
            testbed, tag="busy", workers=[WorkerSpec("slow_incr", args=5000, repeat=1)]
        )
        for _ in range(30):
            testbed.source_os.engine.step_round()
        orch = MigrationOrchestrator(testbed)
        orch.checkpoint_enclave(app)
        # The long-running worker was parked via AEX + handler: its TCS
        # must appear in the replay plan with CSSA 1 after restore.
        target = orch.build_virgin_target(app)
        orch.establish_channel(app, target)
        delivered = orch.transfer_checkpoint(app)
        orch.handoff_key(app, target)
        plan = orch.restore(target, delivered)
        assert plan == {0: 1}

    def test_sequence_increments_per_checkpoint(self, testbed):
        from repro.sdk import control

        app = build_counter_app(testbed, tag="seq")
        orch = MigrationOrchestrator(testbed)
        orch.checkpoint_enclave(app)
        first = app.library.last_checkpoint.sequence
        orch.cancel(app)
        orch.checkpoint_enclave(app)
        assert app.library.last_checkpoint.sequence == first + 1

    def test_unreadable_page_skipped(self, testbed):
        from tests.conftest import make_counter_program

        built = testbed.builder.build(
            "counter-wx",
            make_counter_program("wx"),
            n_workers=2,
            global_names=("counter",),
            add_unreadable_page=True,
        )
        testbed.owner.register_image(built)
        from repro.sdk.host import HostApplication

        app = HostApplication(
            testbed.source, testbed.source_os, built.image, workers=[], owner=testbed.owner
        ).launch()
        MigrationOrchestrator(testbed).checkpoint_enclave(app)
        # The §IV-B SGX v1 limitation: the W+X page cannot be dumped.
        assert app.library.last_checkpoint.skipped_pages == 1
