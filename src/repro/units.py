"""Unit helpers shared across the library.

The simulator keeps time as an integer number of nanoseconds and data
rates as floating-point bits per second.  These helpers keep the
conversions explicit and readable: ``us(50)`` is clearly fifty
microseconds, ``gbps(40)`` clearly forty gigabits per second.

All byte-quantity helpers use *decimal* multiples (1 KB = 1000 bytes),
matching the convention the paper uses for switch buffers (a "12MB"
Trident II buffer is 12e6 bytes; that is the only interpretation that
reproduces the paper's 24.47 KB PFC threshold).
"""

from __future__ import annotations

# --- time -> nanoseconds -------------------------------------------------

NS_PER_US = 1_000
NS_PER_MS = 1_000_000
NS_PER_SEC = 1_000_000_000


def ns(value: float) -> int:
    """Nanoseconds (identity, rounded to an integer tick)."""
    return int(round(value))


def us(value: float) -> int:
    """Microseconds expressed in integer nanoseconds."""
    return int(round(value * NS_PER_US))


def ms(value: float) -> int:
    """Milliseconds expressed in integer nanoseconds."""
    return int(round(value * NS_PER_MS))


# --- data sizes -> bytes (decimal) ---------------------------------------


def kb(value: float) -> int:
    """Kilobytes (decimal, 1 KB = 1000 B) expressed in bytes."""
    return int(round(value * 1_000))


def mb(value: float) -> int:
    """Megabytes (decimal, 1 MB = 1e6 B) expressed in bytes."""
    return int(round(value * 1_000_000))


# --- data rates -> bits per second ---------------------------------------


def mbps(value: float) -> float:
    """Megabits per second expressed in bits per second."""
    return value * 1e6


def gbps(value: float) -> float:
    """Gigabits per second expressed in bits per second."""
    return value * 1e9
