"""Deterministic RNG substream derivation.

Every random quantity in a run is drawn from a substream derived from the
64-bit master seed, a domain tag, and an index. Derivation is a SHA-256
hash of ``tag || 0x00 || index_le8 || master_le8``; the 256-bit digest,
read as a little-endian integer, seeds numpy's PCG64 via SeedSequence.
Substreams are therefore collision-resistant, independent of evaluation
order, and reproducible from the run manifest alone. A seed or index
that is not an integer in [0, 2**64) (a float, a bool, a string) is
refused, not wrapped onto another. (Bit-equality of Gaussian draws across
other language runtimes is a non-goal; the derivation scheme is portable.)
"""

from __future__ import annotations

import hashlib
import operator

import numpy as np

from .errors import InvalidInputError


def _word(name: str, value: int) -> bytes:
    if isinstance(value, bool) or not hasattr(type(value), "__index__"):
        raise InvalidInputError(f"{name} {value!r} is not an integer")
    try:
        return operator.index(value).to_bytes(8, "little")
    except OverflowError:
        raise InvalidInputError(f"{name} {value} must lie in [0, 2**64)") from None


def check_seed(master_seed: int) -> None:
    """Refuse, with the message :func:`seed_substream` would give, a seed it
    cannot key, so a caller can refuse it before any work."""
    _word("seed", master_seed)


def _digest(master_seed: int, tag: str, index: int) -> bytes:
    seed = _word("seed", master_seed)
    return hashlib.sha256(tag.encode("utf-8") + b"\x00"
                          + _word("substream index", index) + seed).digest()


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
