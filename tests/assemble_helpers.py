"""The period classifier that only the tests use: the exceptional case of
the paper, an all-periodic system whose period set holds an infinite
sequence with no common divisor inside the set.  No command reports it."""

from strictform._value import Value, _set


class PeriodSpec(Value):
    """The set of minimal periods of the periodic part of a system, given as
    an explicit finite set plus an optional symbolic infinite family."""

    __slots__ = ("explicit_periods", "infinite_family", "all_periodic")

    # infinite_family is "none", "all_primes" or "geometric(b)"
    def __init__(self, explicit_periods, infinite_family="none", all_periodic=False):
        _set(self, "explicit_periods", explicit_periods)
        _set(self, "infinite_family", infinite_family)
        _set(self, "all_periodic", all_periodic)
        if any(p < 1 for p in explicit_periods):
            raise ValueError("periods must be positive")
        fam = infinite_family
        if fam not in ("none", "all_primes") and not _geometric_base(fam):
            raise ValueError(f"unsupported symbolic family {fam!r}")
        if all_periodic and fam == "none" and not explicit_periods:
            raise ValueError("an all-periodic system needs some period")


def _geometric_base(fam: str) -> int | None:
    if fam.startswith("geometric(") and fam.endswith(")"):
        try:
            b = int(fam[len("geometric(") : -1])
        except ValueError:
            return None
        return b if b >= 2 else None
    return None


def detect_exceptional(spec: PeriodSpec) -> bool:
    """True iff every point is periodic and the period set contains an
    infinite sequence with no common divisor inside the set (1 counts as a
    divisor, so sets containing 1 are never exceptional)."""
    # a finite set is never exceptional, the base of a geometric family
    # divides every member and belongs to it, and distinct primes share only
    # the divisor 1
    return spec.all_periodic and (
        spec.infinite_family == "all_primes" and 1 not in spec.explicit_periods
    )
