"""Reference class distributions for the exceptional types.

Index = class of nilpotence, value = number of ideals (zeros included,
so the tuple length is the largest attained class plus one).  Row sums
are the ideal totals 8, 105, 833, 4160 and 25080.
"""
from __future__ import annotations

EXCEPTIONAL_CLASS_COUNTS: dict[str, tuple[int, ...]] = {
    "G2": (1, 3, 2, 1, 0, 1),
    "F4": (1, 15, 28, 21, 14, 12, 5, 4, 2, 2, 0, 1),
    "E6": (1, 63, 210, 217, 150, 92, 51, 28, 12, 6, 2, 1),
    "E7": (1, 127, 662, 894, 766, 576, 403, 279, 175, 115, 68, 44, 23, 14, 7, 4, 1, 1),
    "E8": (
        1, 255, 2200, 3804, 3872, 3372, 2752, 2182, 1656, 1277,
        955, 737, 536, 412, 300, 227, 157, 123, 81, 61,
        40, 30, 18, 14, 7, 5, 3, 2, 0, 1,
    ),
}
