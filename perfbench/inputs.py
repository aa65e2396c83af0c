"""Seeded benchmark inputs: corpora, crafted attacks and encoded payloads.

Everything here runs before a timed window. The same seed always yields
the same arrays and the same payload bytes.

Uploads from real clients are PNGs written by libpng, which picks a
scanline filter per row with its "minimum sum of absolute differences"
heuristic. :func:`encode_png_adaptive` reproduces that heuristic so the
server's decoder sees the filter mix a real upload has, not the all-filter-0
files the repository's own encoder writes.
"""

from __future__ import annotations

import os
import struct
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from repro.attacks import craft_attack_image
from repro.attacks.base import AttackConfig
from repro.datasets import caltech_like_corpus
from repro.imaging.image import as_uint8
from repro.imaging.scaling import resize

_SIGNATURE = b"\x89PNG\r\n\x1a\n"
_COLOR_TYPES = {1: 0, 3: 2, 4: 6}
#: Corpus seed of the inputs every run shares: holdout and attacks.
ASSET_SEED = 0


def _chunk(ctype: bytes, payload: bytes) -> bytes:
    crc = zlib.crc32(ctype + payload) & 0xFFFFFFFF
    return struct.pack(">I", len(payload)) + ctype + payload + struct.pack(">I", crc)


def _paeth(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    p = a + b - c
    pa, pb, pc = np.abs(p - a), np.abs(p - b), np.abs(p - c)
    return np.where((pa <= pb) & (pa <= pc), a, np.where(pb <= pc, b, c))


def filter_candidates(pixels: np.ndarray) -> np.ndarray:
    """All five PNG filters applied to every row: ``(5, H, stride)`` uint8.

    *pixels* is ``(H, W, C)`` uint8. Each filter reads the unfiltered
    neighbours (left ``a``, up ``b``, upper-left ``c``), as the PNG
    specification requires, so all rows are filtered at once.
    """
    height, width, channels = pixels.shape
    x = pixels.reshape(height, width * channels).astype(np.int64)
    a = np.zeros_like(x)
    a[:, channels:] = x[:, :-channels]
    b = np.zeros_like(x)
    b[1:] = x[:-1]
    c = np.zeros_like(x)
    c[1:, channels:] = x[:-1, :-channels]
    stacked = np.stack(
        [x, x - a, x - b, x - ((a + b) >> 1), x - _paeth(a, b, c)]
    )
    return (stacked & 0xFF).astype(np.uint8)


def choose_filters(candidates: np.ndarray) -> np.ndarray:
    """libpng's heuristic: per row, the filter whose bytes, read as signed,
    have the smallest sum of absolute values. Ties go to the lower type."""
    signed = candidates.astype(np.int64)
    cost = np.minimum(signed, 256 - signed).sum(axis=2)
    return np.argmin(cost, axis=0)


def encode_png_adaptive(pixels: np.ndarray) -> tuple[bytes, np.ndarray]:
    """Encode uint8 ``(H, W)`` or ``(H, W, C)`` pixels as a PNG the way
    libpng does; returns ``(payload, per-row filter types)``."""
    if pixels.dtype != np.uint8:
        raise ValueError(f"expected uint8 pixels, got {pixels.dtype}")
    if pixels.ndim == 2:
        pixels = pixels[:, :, None]
    height, width, channels = pixels.shape
    candidates = filter_candidates(pixels)
    filters = choose_filters(candidates)
    rows = candidates[filters, np.arange(height)]
    raw = np.concatenate([filters.astype(np.uint8)[:, None], rows], axis=1)
    ihdr = struct.pack(">IIBBBBB", width, height, 8, _COLOR_TYPES[channels], 0, 0, 0)
    payload = (
        _SIGNATURE
        + _chunk(b"IHDR", ihdr)
        + _chunk(b"IDAT", zlib.compress(raw.tobytes(), 6))
        + _chunk(b"IEND", b"")
    )
    return payload, filters


def png_filter_types(payload: bytes) -> np.ndarray:
    """The per-row filter bytes of a non-interlaced 8-bit PNG payload."""
    offset = len(_SIGNATURE)
    idat = bytearray()
    width = height = channels = 0
    while offset < len(payload):
        length, ctype = struct.unpack(">I4s", payload[offset : offset + 8])
        body = payload[offset + 8 : offset + 8 + length]
        if ctype == b"IHDR":
            width, height, _, color_type = struct.unpack(">IIBB", body[:10])
            channels = {0: 1, 2: 3, 6: 4}[color_type]
        elif ctype == b"IDAT":
            idat.extend(body)
        offset += 12 + length
    raw = np.frombuffer(zlib.decompress(bytes(idat)), dtype=np.uint8)
    return raw.reshape(height, width * channels + 1)[:, 0].copy()


@dataclass
class InputSet:
    """One workload's generated inputs.

    ``pool`` holds the distinct images the traffic cycles through, with
    ``labels[i]`` True for crafted attacks; ``payloads[i]`` is the encoded
    upload of ``pool[i]`` (empty for the offline workload, which submits
    arrays). ``schedule`` is the seeded order in which pool indices are
    sent: shuffled cycles over the pool, so every cycle carries exactly
    the pool's attack share.
    """

    holdout: list[np.ndarray]
    pool: list[np.ndarray]
    labels: list[bool]
    payloads: list[bytes] = field(default_factory=list)
    schedule: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))

    def block(self, encoding: str) -> dict:
        """The per-workload input description recorded with every result."""
        out = {
            "image_shape": list(self.pool[0].shape),
            "distinct_images": len(self.pool),
            "attack_share": sum(self.labels) / len(self.labels),
            "holdout_images": len(self.holdout),
            "encoding": encoding,
        }
        if self.payloads:
            filters = np.concatenate([png_filter_types(p) for p in self.payloads])
            out["payload_bytes_mean"] = float(np.mean([len(p) for p in self.payloads]))
            out["filter_share"] = [
                float(np.mean(filters == kind)) for kind in range(5)
            ]
        return out


def make_assets(
    *, image_size: int, input_size: int, holdout: int, attacks: int, benign: int
) -> dict:
    """The inputs every run of a workload shares, all drawn from
    :data:`ASSET_SEED`: the calibration holdout, the crafted attacks and
    the benign images.

    Drawn afresh per seed, eight attacks would move recall in steps of
    1/8 (0.625 to 1.0 over seeds 1-10 on upload-libpng), and 56 benign
    uploads moved the true-negative rate from 0.946 to 1.0. No bound
    could absorb that and still catch a real accuracy change. Fixed assets
    keep recall, the true-negative rate and the calibrated thresholds
    equal across seeds, so only a change to the program moves them; the
    seed picks the request order. Attacks are bilinear at epsilon 4, each
    hiding a Caltech-like target.
    """
    shape = (image_size, image_size)
    originals = _corpus(ASSET_SEED, 3, attacks, shape)
    targets = _corpus(ASSET_SEED, 4, attacks, shape)
    crafted = [
        as_uint8(
            craft_attack_image(
                original,
                resize(target, (input_size, input_size), "bilinear"),
                algorithm="bilinear",
                config=AttackConfig(epsilon=4.0),
            ).attack_image
        )
        for original, target in zip(originals, targets)
    ]
    return {
        "holdout": np.stack(_corpus(ASSET_SEED, 1, holdout, shape)),
        "attacks": np.stack(crafted),
        "benign": np.stack(_corpus(ASSET_SEED, 2, benign, shape)),
    }


def cached_assets(cache_dir: Path, key: str, build) -> dict:
    """``build()``'s arrays, kept in *cache_dir* under *key* across runs.

    Crafting the attacks is the costliest part of making the inputs, so
    a checkout builds its assets once; *key* must change whenever the
    code that builds them does.
    """
    path = cache_dir / f"{key}.npz"
    if not path.is_file():
        cache_dir.mkdir(parents=True, exist_ok=True)
        partial = cache_dir / f"{key}.{os.getpid()}.tmp.npz"
        np.savez(partial, **build())
        os.replace(partial, path)
    with np.load(path) as stored:
        return {name: stored[name] for name in stored.files}


def make_inputs(seed: int, assets: dict, *, length: int) -> InputSet:
    """The seeded traffic: the fixed attacks and benign images of
    *assets*, sent in a request order drawn from *seed* of at least
    *length* entries.

    Images are uint8, the form a decoded upload has, so the oracle scores
    exactly what the server decodes.
    """
    attacks = list(assets["attacks"])
    harmless = list(assets["benign"])
    pool = attacks + harmless
    labels = [True] * len(attacks) + [False] * len(harmless)
    rng = np.random.default_rng([seed, 5])
    cycles = -(-length // len(pool))
    schedule = np.concatenate([rng.permutation(len(pool)) for _ in range(cycles)])
    return InputSet(
        holdout=list(assets["holdout"]), pool=pool, labels=labels, schedule=schedule
    )


def _corpus(base: int, stream: int, size: int, shape: tuple[int, int]) -> list[np.ndarray]:
    images = caltech_like_corpus(size, image_shape=shape, seed=base * 16 + stream)
    return [as_uint8(image) for image in images]
