"""Artifact codec and cache-key tests.

Every trace is stored as its columnar payload; these pin that both
trace forms (materialized and columns-only) round-trip, that access
lists pack to the same bytes whether their records alias the trace or
came back through pickle, that payloads of an older layout read as
cache misses, and that cache keys follow the library's sources.
"""

from __future__ import annotations

import hashlib
import marshal
import pickle
import shutil
from pathlib import Path

import pytest

import repro
from repro.analysis.episodes import assemble_accesses
from repro.pipeline import cache as cache_module
from repro.pipeline.cache import ArtifactCache, _MAGIC, source_fingerprint
from repro.pipeline.codec import (
    _encode_accesses_indexed,
    decode_artifact,
    encode_artifact,
)
from repro.workload import STANDARD_PROFILES, generate_trace


@pytest.fixture(scope="module")
def trace():
    return generate_trace(
        STANDARD_PROFILES[0], seed=11, scale=0.02, client_count=4
    )


@pytest.mark.parametrize("materialize", [True, False])
def test_trace_round_trips(materialize):
    original = generate_trace(
        STANDARD_PROFILES[1],
        seed=5,
        scale=0.02,
        client_count=4,
        materialize=materialize,
    )
    assert bool(original.records) is materialize
    decoded = decode_artifact(encode_artifact(original))
    assert decoded.records == original.records
    assert decoded.columnar.to_payload() == original.columnar.to_payload()
    assert decoded.validation == original.validation
    assert decoded.record_count == original.record_count > 0
    assert decoded == original


def test_indexed_accesses_identity_and_equality_paths_agree(trace):
    accesses = list(assemble_accesses(trace.records))
    assert accesses
    aliased = _encode_accesses_indexed(accesses, trace.records)
    # A worker process hands accesses back through pickle: equal
    # records, no longer the trace's objects.
    copied = pickle.loads(pickle.dumps(accesses))
    assert copied[0].open_record is not accesses[0].open_record
    assert aliased is not None
    assert _encode_accesses_indexed(copied, trace.records) == aliased
    decoded = decode_artifact(aliased, {"records": trace.records})
    assert [(a.open_record, a.close_record, a.runs) for a in decoded] == [
        (a.open_record, a.close_record, a.runs) for a in accesses
    ]


def test_foreign_accesses_fall_back_to_standalone(trace):
    other = generate_trace(
        STANDARD_PROFILES[0], seed=12, scale=0.02, client_count=4
    )
    accesses = list(assemble_accesses(other.records))
    assert _encode_accesses_indexed(accesses, trace.records) is None


def _write_entry(cache: ArtifactCache, key: str, payload: bytes) -> Path:
    path = cache.path_for(key)
    path.parent.mkdir(parents=True, exist_ok=True)
    digest = hashlib.sha256(payload).hexdigest().encode("ascii")
    path.write_bytes(_MAGIC + digest + b"\n" + payload)
    return path


def test_old_row_packed_trace_payload_is_a_miss(tmp_path, trace):
    """An entry in the retired ``T`` (row-packed trace) layout, with a
    valid envelope and checksum, loads as a miss and is unlinked."""
    body = pickle.dumps(
        {
            "records": marshal.dumps(([], 0, []), 2),
            "profile": trace.profile,
            "seed": trace.seed,
            "scale": trace.scale,
            "users": trace.users,
            "validation": trace.validation,
        }
    )
    cache = ArtifactCache(tmp_path)
    path = _write_entry(cache, "ab" * 32, b"T" + body)
    assert cache.load("ab" * 32) is None
    assert cache.stats.corrupt == cache.stats.misses == 1
    assert not path.exists()


class TestSourceFingerprint:
    @pytest.fixture()
    def package_copy(self, tmp_path):
        source = Path(repro.__file__).parent
        copy = tmp_path / "repro"
        shutil.copytree(
            source, copy, ignore=shutil.ignore_patterns("__pycache__")
        )
        return copy

    def test_unmodified_copy_fingerprints_the_same(self, package_copy):
        assert source_fingerprint(package_copy) == cache_module.code_fingerprint()

    def test_one_byte_edit_changes_the_fingerprint(self, package_copy):
        before = source_fingerprint(package_copy)
        client = package_copy / "fs" / "client.py"
        client.write_bytes(client.read_bytes() + b" ")
        assert source_fingerprint(package_copy) != before

    def test_edited_sources_turn_a_hit_into_a_miss(
        self, package_copy, tmp_path, trace, monkeypatch
    ):
        cache = ArtifactCache(tmp_path / "cache")
        fields = {"kind": "trace", "seed": 11}
        assert cache.store(cache.key_for(fields), trace)
        assert cache.load(cache.key_for(fields)) == trace

        client = package_copy / "fs" / "client.py"
        client.write_bytes(client.read_bytes() + b" ")
        edited = source_fingerprint(package_copy)
        monkeypatch.setattr(cache_module, "code_fingerprint", lambda: edited)
        assert cache.load(cache.key_for(fields)) is None
        assert cache.stats.hits == 1 and cache.stats.misses == 1
