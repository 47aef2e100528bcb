"""Lossless audio compression (the libFLAC stand-in, section 6.5.1).

A real (if compact) codec: first-order linear prediction (delta
coding) followed by Rice/Golomb coding of the zig-zag-mapped residuals
— the same core pipeline FLAC uses.  Implemented with numpy bit
twiddling; the cycle cost the voice assistant charges per sample is
calibrated against libFLAC throughput on small cores.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # numpy loads only when the codec runs
    import numpy as np

# Encoder work per input sample on the simulated cores (calibrated to
# libFLAC -5 on ~100 MHz-class embedded cores: a few hundred cycles).
COMPRESS_CYCLES_PER_SAMPLE = 55


def _zigzag(values: np.ndarray) -> np.ndarray:
    import numpy as np

    return ((values << 1) ^ (values >> 31)).astype(np.uint32)


def _unzigzag(values: np.ndarray) -> np.ndarray:
    import numpy as np

    return ((values >> 1).astype(np.int32) ^ -(values & 1).astype(np.int32))


def _choose_k(residuals: np.ndarray) -> int:
    """Rice parameter from the mean residual magnitude."""
    import numpy as np

    mean = float(np.mean(residuals)) if len(residuals) else 0.0
    k = 0
    while (1 << k) < mean and k < 30:
        k += 1
    return k


def rice_compress(samples: np.ndarray) -> bytes:
    """Compress int16 PCM samples; returns the encoded frame."""
    import numpy as np

    samples = np.asarray(samples, dtype=np.int16)
    predicted = np.empty_like(samples, dtype=np.int32)
    predicted[0] = samples[0]
    predicted[1:] = samples[1:].astype(np.int32) - samples[:-1].astype(np.int32)
    mapped = _zigzag(predicted)
    k = _choose_k(mapped)

    quotients = mapped >> k
    bits_needed = int(np.sum(quotients)) + len(mapped) * (1 + k)
    out = np.zeros((bits_needed + 7) // 8 * 8, dtype=np.uint8)
    pos = 0
    # unary part: 'q' zeros then a one; binary part: k low bits
    for value, q in zip(mapped.tolist(), quotients.tolist()):
        pos += q
        out[pos] = 1
        pos += 1
        for bit in range(k - 1, -1, -1):
            out[pos] = (value >> bit) & 1
            pos += 1
    packed = np.packbits(out[:pos])
    header = np.array([k, len(samples) & 0xFF, (len(samples) >> 8) & 0xFF,
                       (len(samples) >> 16) & 0xFF], dtype=np.uint8)
    return header.tobytes() + packed.tobytes()


def rice_decompress(frame: bytes) -> np.ndarray:
    """Inverse of :func:`rice_compress` (used to verify losslessness)."""
    import numpy as np

    k = frame[0]
    n = frame[1] | (frame[2] << 8) | (frame[3] << 16)
    bits = np.unpackbits(np.frombuffer(frame[4:], dtype=np.uint8))
    mapped = np.empty(n, dtype=np.uint32)
    pos = 0
    for i in range(n):
        q = 0
        while bits[pos] == 0:
            q += 1
            pos += 1
        pos += 1  # the terminating one
        value = 0
        for _ in range(k):
            value = (value << 1) | int(bits[pos])
            pos += 1
        mapped[i] = (q << k) | value
    residuals = _unzigzag(mapped)
    samples = np.cumsum(residuals, dtype=np.int64)
    return samples.astype(np.int16)


def make_audio(n_samples: int, trigger_at=None, seed: int = 7) -> np.ndarray:
    """Synthetic room audio: quiet noise with loud 'trigger word' bursts."""
    import numpy as np

    rng = np.random.default_rng(seed)
    t = np.arange(n_samples)
    audio = (rng.normal(0, 40, n_samples)
             + 120 * np.sin(2 * np.pi * t / 197)).astype(np.int16)
    for pos in (trigger_at or []):
        burst = slice(pos, min(pos + 2048, n_samples))
        n = burst.stop - burst.start
        audio[burst] += (4000 * np.sin(2 * np.pi * np.arange(n) / 23)
                         ).astype(np.int16)
    return audio


def detect_trigger(frame: np.ndarray, threshold: float = 1000.0) -> bool:
    """The scanner's trigger-word detector: an RMS energy gate."""
    import numpy as np

    return float(np.sqrt(np.mean(frame.astype(np.float64) ** 2))) > threshold


# Scanner work per input sample (feature extraction + matching).
SCAN_CYCLES_PER_SAMPLE = 12
