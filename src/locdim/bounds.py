"""Closed-form bounds on metric dimension (beta) and localization number
(zeta) for the three diameter-2 families, kept as exact rationals.

Lower bounds round up and upper bounds round down, since both quantities are
integers. Entries whose supporting argument does not apply at the given
parameters are still emitted, with satisfied=False and the reason in notes,
so reports always show what was checked.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .fields import is_prime_power

MOORE_DEGREES = (2, 3, 7, 57)


class BoundContradictionError(Exception):
    """A computed value violates an applicable bound; names the source."""


class BoundEntry(NamedTuple):
    quantity: str  # "beta" | "zeta"
    kind: str  # "lower" | "upper"
    source: str
    value: Fraction | None
    preconditions: tuple[str, ...] = ()
    satisfied: bool = True
    notes: str = ""

    @property
    def bound(self) -> int | None:
        """The value rounded to the integers it allows: up for a lower bound,
        down for an upper one; None without a value."""
        if self.value is None:
            return None
        rounded = math.ceil if self.kind == "lower" else math.floor
        return rounded(self.value)

    def to_json_dict(self) -> dict:
        return {
            "quantity": self.quantity,
            "kind": self.kind,
            "source": self.source,
            "value": None if self.value is None else str(self.value),
            "bound": self.bound,
            "preconditions": list(self.preconditions),
            "satisfied": self.satisfied,
            "notes": self.notes,
        }


def _entry(quantity, kind, source, value, pre, notes="") -> BoundEntry:
    return BoundEntry(quantity, kind, source, value, tuple(pre), True, notes)


def _flagged(quantity, kind, source, pre, notes) -> BoundEntry:
    return BoundEntry(quantity, kind, source, None, tuple(pre), False, notes)


def _check_kneser_params(k: int, n: int) -> None:
    if k < 2:
        raise ValueError(f"need k >= 2, got k={k}")
    if n < 3 * k:
        raise ValueError(
            f"the paper's Kneser bounds need n >= 3k, got k={k}, n={n}")


def kneser_beta_lower(k: int, n: int) -> BoundEntry:
    """Counting lower bound on beta of the Kneser graph K(k, n)."""
    _check_kneser_params(k, n)
    pre = ["n >= 3k", "k >= 3"]
    if k == 2:
        return _flagged("beta", "lower", "kneser-beta-counting", pre,
                        "counting argument stated for k >= 3")
    if k == 3 and n < 18:
        return _flagged("beta", "lower", "kneser-beta-counting",
                        pre + ["k = 3 needs n >= 18"],
                        f"k = 3 form needs n >= 18, got n={n}")
    value = Fraction(3 * n - 1, 4) if k == 4 else Fraction(n, 2) + Fraction(n, k)
    return _entry("beta", "lower", "kneser-beta-counting", value, pre)


def kneser_zeta_lower(k: int, n: int) -> BoundEntry:
    """Counting lower bound on zeta of K(k, n); weaker than the beta bound
    because one probe round leaks less than a full resolving set."""
    _check_kneser_params(k, n)
    pre = ["n >= 3k", "k >= 3"]
    if k == 2:
        return _flagged("zeta", "lower", "kneser-zeta-counting", pre,
                        "counting argument stated for k >= 3")
    if k == 3 and n - k < 18:
        return _flagged("zeta", "lower", "kneser-zeta-counting",
                        pre + ["k = 3 needs n - k >= 18"],
                        f"k = 3 form needs n - k >= 18, got n={n}")
    if k == 4:
        value = Fraction(3 * n - 13, 4)
    else:
        value = Fraction(n, 2) + Fraction(n, k) - Fraction(k, 2) - 1
    return _entry("zeta", "lower", "kneser-zeta-counting", value, pre)


def kneser_beta_upper(k: int, n: int, m: int) -> BoundEntry:
    """Upper bound on beta of K(k, n) from a resolving cover built out of
    girth-5 gadget copies on m points each."""
    _check_kneser_params(k, n)
    if m < k or m > n:
        raise ValueError(f"gadget point count m={m} outside [k, n]")
    covered = n if n % m == 0 else n + m
    if k % 2 == 0:
        rate = Fraction(1, 2) + Fraction(1, k)
    else:
        rate = Fraction(1, 2) + Fraction(1, k) + Fraction(1, 2 * k)
    value = rate * covered
    pre = ["n >= 3k", "gadget is k-uniform with Berge girth >= 5"]
    if k == 2:
        return BoundEntry("beta", "upper", "kneser-cover-upper", value,
                          tuple(pre), False,
                          "cover route stated for k >= 3; k = 2 is an extension")
    return _entry("beta", "upper", "kneser-cover-upper", value, pre)


def moore_bounds(k: int) -> list[BoundEntry]:
    """Bounds for the diameter-2 Moore graph of degree k."""
    if k not in MOORE_DEGREES:
        raise ValueError(f"no diameter-2 Moore graph of degree {k}")
    pre = ["k-regular Moore graph of diameter 2"]
    if k <= 3:
        # pentagon and Petersen: both quantities known exactly
        return [
            _entry("beta", "lower", "moore-exact-small", Fraction(k), pre),
            _entry("beta", "upper", "moore-exact-small", Fraction(k), pre),
            _entry("zeta", "lower", "moore-exact-small", Fraction(k), pre),
            _entry("zeta", "upper", "moore-exact-small", Fraction(k), pre),
        ]
    return [
        _entry("beta", "lower", "moore-beta-lower", Fraction(k), pre),
        _entry("beta", "upper", "moore-neighborhood-upper",
               Fraction(2 * k - 3), pre,
               "two adjacent neighborhoods minus three vertices resolve"),
        _entry("zeta", "lower", "moore-zeta-range", Fraction(k - 1), pre),
        _entry("zeta", "upper", "moore-zeta-range", Fraction(k), pre,
               "staged k-cop strategy; k - 2 cops provably lose"),
    ]


def polarity_bounds(q: int) -> list[BoundEntry]:
    """Bounds for the polarity graph ER(q)."""
    if q < 2 or not is_prime_power(q):
        raise ValueError(f"q={q} is not a prime power >= 2")
    pre = [f"q={q} a prime power"]
    entries = []
    raw_beta = 2 * q - 5
    note = "clamped to 1" if raw_beta < 1 else ""
    entries.append(_entry("beta", "lower", "polarity-beta-lower",
                          Fraction(max(1, raw_beta)), pre, note))
    entries.append(_entry("beta", "upper", "polarity-neighborhood-upper",
                          Fraction(2 * q - 1), pre,
                          "two adjacent neighborhoods resolve"))
    zeta_raw = Fraction(2 * q - 5, 3)
    clamped = max(Fraction(1), zeta_raw)
    note = "clamped to 1" if zeta_raw < 1 else ""
    entries.append(_entry("zeta", "lower", "polarity-zeta-lower", clamped,
                          pre, note))
    entries.append(_entry("zeta", "upper", "zeta-from-beta-upper",
                          Fraction(2 * q - 1), pre,
                          "zeta never exceeds beta"))
    return entries


class BoundsReport:
    def __init__(self, family: str, params: dict, entries: list[BoundEntry],
                 computed: dict) -> None:
        self.family = family
        self.params = params
        self.entries = entries
        self.computed = computed
        self.checked: list[str] = []

    def to_json_dict(self) -> dict:
        return {
            "family": self.family,
            "params": dict(sorted(self.params.items())),
            "entries": [e.to_json_dict() for e in self.entries],
            "computed": {key: list(v) if isinstance(v, tuple) else v
                         for key, v in sorted(self.computed.items())},
            "checked": list(self.checked),
        }


def _as_interval(v) -> tuple[int, int]:
    if isinstance(v, tuple):
        lo, hi = map(int, v)
        if lo > hi:
            raise ValueError(f"empty interval {lo}:{hi}")
        return lo, hi
    return int(v), int(v)


def bounds_report(family: str, *, k: int | None = None, n: int | None = None,
                  q: int | None = None, gadget_m: int | None = None,
                  computed: dict | None = None) -> BoundsReport:
    """Assembles every applicable bound for one family instance and
    cross-checks it against computed values (exact ints or (lo, hi)
    intervals). A computed value outside an applicable bound raises
    BoundContradictionError naming the source; that never passes silently.
    """
    if family == "kneser":
        if k is None or n is None:
            raise ValueError("kneser bounds need k and n")
        params = {"k": k, "n": n}
        entries = [kneser_beta_lower(k, n), kneser_zeta_lower(k, n)]
        if gadget_m is not None:
            params["gadget_m"] = gadget_m
            entries.append(kneser_beta_upper(k, n, gadget_m))
    elif family == "moore":
        if k is None:
            raise ValueError("moore bounds need k")
        params = {"k": k}
        entries = moore_bounds(k)
    elif family == "polarity":
        if q is None:
            raise ValueError("polarity bounds need q")
        params = {"q": q}
        entries = polarity_bounds(q)
    else:
        raise ValueError(f"unknown family {family!r}")

    report = BoundsReport(family, params, entries, dict(computed or {}))
    # every value is checked, even one that no entry below reads
    intervals = {key: _as_interval(v) for key, v in report.computed.items()
                 if v is not None}
    for entry in entries:
        if (not entry.satisfied or entry.bound is None
                or entry.quantity not in intervals):
            continue
        lo, hi = intervals[entry.quantity]
        if entry.kind == "lower" and entry.bound > hi:
            raise BoundContradictionError(
                f"{entry.source}: lower bound {entry.bound} exceeds computed "
                f"{entry.quantity} <= {hi}")
        if entry.kind == "upper" and entry.bound < lo:
            raise BoundContradictionError(
                f"{entry.source}: upper bound {entry.bound} is below computed "
                f"{entry.quantity} >= {lo}")
        report.checked.append(
            f"{entry.quantity} {entry.kind} {entry.bound} [{entry.source}] ok")
    return report
