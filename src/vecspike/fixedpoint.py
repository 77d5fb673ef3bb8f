"""Signed fixed-point arithmetic helpers.

Membrane potentials, folded biases and thresholds are all stored as plain
integers scaled by 2**frac_bits.  The default format is signed 24-bit with
8 fractional bits, which leaves headroom above the worst-case integer
convolution magnitudes of the supported layer shapes.  Overflow, of a
sum or of a left shift, is a reported fault, never a silent wraparound.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FixedPointOverflowError, InvalidParameterError


@dataclass(frozen=True)
class FixedPointFormat:
    total_bits: int = 24
    frac_bits: int = 8

    def __post_init__(self):
        if not 0 < self.frac_bits < self.total_bits:
            raise InvalidParameterError(
                f"need 0 < frac_bits < total_bits, got {self.frac_bits}/{self.total_bits}"
            )
        if self.total_bits > 62:
            # raw values are carried in int64; leave room for one addition
            raise InvalidParameterError("total_bits > 62 is not supported")

    @property
    def scale(self) -> int:
        return 1 << self.frac_bits

    @property
    def raw_min(self) -> int:
        return -(1 << (self.total_bits - 1))

    @property
    def raw_max(self) -> int:
        return (1 << (self.total_bits - 1)) - 1

    def check_raw(self, raw, context: str = "value"):
        """Validate that raw value(s) fit the format; returns the input."""
        arr = np.asarray(raw)
        if arr.size and (arr.min() < self.raw_min or arr.max() > self.raw_max):
            bad = int(arr.min()) if arr.min() < self.raw_min else int(arr.max())
            raise FixedPointOverflowError(
                f"{context}: raw {bad} outside [{self.raw_min}, {self.raw_max}] "
                f"for {self.total_bits}-bit format"
            )
        return raw

    def shift_left(self, raw, shift: int, context: str = "value") -> np.ndarray:
        """``raw << shift`` in int64; raises where the shift would wrap.

        The result may still lie outside the format: ``check_raw`` of it, or
        of its sum with in-format values (which can only wrap out of the
        format), catches that.  A non-integer ``raw`` raises: truncating it
        would hide a fraction.
        """
        arr = np.asarray(raw)
        if arr.dtype.kind not in "iu":
            raise InvalidParameterError(f"{context}: shift of non-integer {arr.dtype}")
        arr = arr.astype(np.int64, copy=False)
        limit = 1 << (63 - shift)
        if arr.size and (arr.min() < -limit or arr.max() >= limit):
            bad = int(arr.min()) if arr.min() < -limit else int(arr.max())
            raise FixedPointOverflowError(f"{context}: raw {bad} << {shift} overflows int64")
        return arr << shift

    def quantize(self, value):
        """Round real value(s) to the fixed-point grid (half to even).

        Scalars come back as int, arrays as int64 ndarrays.  A value off the
        format's range, NaN or infinite, raises ``FixedPointOverflowError``.
        """
        real = np.asarray(value, dtype=np.float64)
        with np.errstate(over="ignore"):  # inf fails the range test below
            scaled = np.rint(real * self.scale)
        # NaN fails both tests; the power-of-two bounds are exact in float64
        fits = (scaled >= self.raw_min) & (scaled < -self.raw_min)
        if not fits.all():
            bad = float(real[~fits].flat[0])
            raise FixedPointOverflowError(f"quantize: {bad!r} outside {self}")
        raw = scaled.astype(np.int64)
        if raw.ndim == 0:
            return int(raw)
        return raw


DEFAULT_FORMAT = FixedPointFormat()
