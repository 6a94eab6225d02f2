"""Deterministic RNG substream derivation.

Every random quantity in a run is drawn from a substream derived from the
64-bit master seed, a domain tag, and an index. Derivation is a SHA-256
hash of ``tag || 0x00 || index_le8 || master_le8``; the 256-bit digest,
read as a little-endian integer, seeds numpy's PCG64 via SeedSequence.
Substreams are therefore collision-resistant, independent of evaluation
order, and reproducible from the run manifest alone. A seed or index
outside [0, 2**64) is refused, not wrapped onto another. (Bit-equality of
Gaussian draws across other language runtimes is a non-goal; the
derivation scheme itself is portable.)
"""

from __future__ import annotations

import hashlib

import numpy as np

from .errors import InvalidInputError


def _digest(master_seed: int, tag: str, index: int) -> bytes:
    try:
        words = (int(index).to_bytes(8, "little")
                 + int(master_seed).to_bytes(8, "little"))
    except OverflowError:
        name, value = (("seed", master_seed) if not 0 <= master_seed < 2 ** 64
                       else ("substream index", index))
        raise InvalidInputError(
            f"{name} {value} must lie in [0, 2**64)") from None
    return hashlib.sha256(tag.encode("utf-8") + b"\x00" + words).digest()


def substream_key(master_seed: int, tag: str, index: int = 0) -> int:
    """256-bit integer key for the (seed, tag, index) substream."""
    return int.from_bytes(_digest(master_seed, tag, index), "little")


def seed_substream(master_seed: int, tag: str, index: int = 0) -> np.random.Generator:
    """Independent generator for one (tag, index) domain of a run.

    SeedSequence gets the key as little-endian 32-bit words without the
    high zero words, which is how it splits the integer key itself, so the
    state is the same while the big-integer conversion is skipped.
    """
    words = np.frombuffer(_digest(master_seed, tag, index), "<u4")
    if not words[-1]:
        words = np.trim_zeros(words, "b")
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(words)))


def complex_gaussian(rng: np.random.Generator, shape, var: float) -> np.ndarray:
    """Circularly symmetric complex Gaussian array, entry variance ``var``.

    Real and imaginary parts are drawn as two consecutive blocks so the
    draw order, and hence reproducibility, does not depend on shape. Both
    blocks come from one draw and are scaled straight into the result.
    """
    re, im = rng.standard_normal((2, *shape))
    scale = np.sqrt(var / 2.0)
    out = np.empty(re.shape, dtype=complex)
    np.multiply(re, scale, out=out.real)
    np.multiply(im, scale, out=out.imag)
    return out
