"""The checkpoint file format: a versioned, CRC32-guarded binary envelope.

Layout (little-endian)::

    offset  size  field
    0       4     magic  b"RSCK"
    4       2     format version (u16)
    6       2     flags  (u16; bit 0 = payload is zlib-compressed)
    8       8     payload length in bytes (u64)
    16      4     CRC32 of the (possibly compressed) payload (u32)
    20      4     CRC32 of bytes 0..20 of the header (u32)
    24      -     payload

The header CRC catches a bit-flip anywhere in the header (including the
length and payload-CRC fields); the payload CRC catches truncation and
bit-flips in the body, *before* any deserialization runs.  The payload
itself is a pickled plain dictionary of Python builtins (ints, floats,
strings, lists, tuples, dicts, None) — no project classes cross the
wire, so old checkpoints survive refactors as long as the payload keys
do.

Readers raise exactly three things:

* :class:`CheckpointCorruptError` — wrong magic, short header, CRC
  mismatch, truncated payload, or an undecodable body;
* :class:`CheckpointVersionError` — an intact envelope written by a
  different format version;
* ``OSError`` — the file could not be read at all.

All three are subclasses-of/or alongside :class:`CheckpointError`, and
every consumer in the tree degrades them to a logged cold start —
corruption never crashes a solve.
"""

from __future__ import annotations

import os
import pickle
import struct
import zlib

from repro.checkpoint.io import atomic_write_bytes

#: First four bytes of every checkpoint file ("Repro-Sat ChecKpoint").
CHECKPOINT_MAGIC = b"RSCK"
#: Current format version; bump on any payload-schema break.
CHECKPOINT_VERSION = 2

_HEADER = struct.Struct("<4sHHQI")  # magic, version, flags, length, payload CRC
_HEADER_CRC = struct.Struct("<I")
HEADER_SIZE = _HEADER.size + _HEADER_CRC.size

_FLAG_COMPRESSED = 1


class CheckpointError(Exception):
    """Base class of every checkpoint read/restore failure."""


class CheckpointCorruptError(CheckpointError):
    """The file is truncated, bit-flipped, or otherwise undecodable."""


class CheckpointVersionError(CheckpointError):
    """The envelope is intact but written by an incompatible version."""


def encode_envelope(
    payload: dict, *, compress: bool = True, version: int = CHECKPOINT_VERSION
) -> bytes:
    """Serialize ``payload`` into a framed, CRC-guarded byte string.

    ``version`` is overridable so tests (and the audit's stale-version
    fault rounds) can craft envelopes from the future.
    """
    body = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    flags = 0
    if compress:
        body = zlib.compress(body, level=6)
        flags |= _FLAG_COMPRESSED
    header = _HEADER.pack(
        CHECKPOINT_MAGIC, version, flags, len(body), zlib.crc32(body)
    )
    return header + _HEADER_CRC.pack(zlib.crc32(header)) + body


def decode_envelope(blob: bytes) -> dict:
    """Parse an envelope back into its payload dictionary.

    Raises :class:`CheckpointCorruptError` or
    :class:`CheckpointVersionError`; never returns partial data.
    """
    if len(blob) < HEADER_SIZE:
        raise CheckpointCorruptError(
            f"file too short for a checkpoint header "
            f"({len(blob)} < {HEADER_SIZE} bytes)"
        )
    header = blob[: _HEADER.size]
    (stored_crc,) = _HEADER_CRC.unpack_from(blob, _HEADER.size)
    if zlib.crc32(header) != stored_crc:
        raise CheckpointCorruptError("header CRC mismatch")
    magic, version, flags, length, payload_crc = _HEADER.unpack(header)
    if magic != CHECKPOINT_MAGIC:
        raise CheckpointCorruptError(f"bad magic {magic!r}")
    if version != CHECKPOINT_VERSION:
        raise CheckpointVersionError(
            f"checkpoint format version {version} "
            f"(this build reads version {CHECKPOINT_VERSION})"
        )
    body = blob[HEADER_SIZE : HEADER_SIZE + length]
    if len(body) != length:
        raise CheckpointCorruptError(
            f"truncated payload ({len(body)} of {length} bytes)"
        )
    if zlib.crc32(body) != payload_crc:
        raise CheckpointCorruptError("payload CRC mismatch")
    if flags & _FLAG_COMPRESSED:
        try:
            body = zlib.decompress(body)
        except zlib.error as error:
            raise CheckpointCorruptError(f"payload decompression failed: {error}")
    try:
        payload = pickle.loads(body)
    except Exception as error:  # pickle raises a zoo of types
        raise CheckpointCorruptError(f"payload deserialization failed: {error}")
    if not isinstance(payload, dict):
        raise CheckpointCorruptError(
            f"payload is {type(payload).__name__}, not a dict"
        )
    return payload


def write_checkpoint_file(path: str | os.PathLike, payload: dict) -> None:
    """Encode ``payload`` and write it to ``path`` atomically."""
    atomic_write_bytes(path, encode_envelope(payload))


def read_checkpoint_file(path: str | os.PathLike) -> dict:
    """Read and decode the checkpoint at ``path`` (raises on any defect)."""
    with open(path, "rb") as handle:
        return decode_envelope(handle.read())
