"""Finite-horizon language oracles and reproducible word generators.

Words are strings of decimal digits (one symbol per character), which keeps
factor queries as plain substring searches.  Oracles are immutable; queries
are pure.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product, repeat
from operator import ge, mod
from typing import Iterator

from ._value import Value, _set

_MASK64 = (1 << 64) - 1

_BITS_TO_ASCII = bytes.maketrans(b"\0\1", b"01")


class HorizonExhausted(ValueError):
    """The oracle cannot answer queries at this word length."""


class LanguageOracle(Value):
    """A queryable finite-horizon language of a subshift.

    The factor set of ``text``, or with no text the full shift over
    ``alphabet``.  Factor-closure is automatic in both cases.
    """

    __slots__ = ("alphabet", "horizon", "text")

    def __init__(self, alphabet, horizon, text=None):
        _set(self, "alphabet", alphabet)
        _set(self, "horizon", horizon)
        _set(self, "text", text)

    def contains(self, word: str) -> bool:
        if len(word) > self.horizon:
            raise HorizonExhausted(
                f"length {len(word)} beyond horizon {self.horizon}"
            )
        if any(c not in self.alphabet for c in word):
            return False
        if self.text is None:
            return True
        return word in self.text

    def words(self, n: int) -> Iterator[str]:
        """All length-n words of the language, lexicographically."""
        if n > self.horizon:
            raise HorizonExhausted(f"length {n} beyond horizon {self.horizon}")
        if self.text is None:
            for tup in product(sorted(self.alphabet), repeat=n):
                yield "".join(tup)
            return
        found = {self.text[i : i + n] for i in range(len(self.text) - n + 1)}
        yield from sorted(found)

    def occurrences(self, word: str) -> list[int]:
        """Start offsets of the word in the backing text."""
        if self.text is None:
            raise ValueError("the full shift has no backing text")
        out, i = [], self.text.find(word)
        while i != -1:
            out.append(i)
            i = self.text.find(word, i + 1)
        return out


def _chacon_text(length: int) -> str:
    """The shortest Chacon iterate with at least ``length`` symbols.

    B_0 = 0 and B_{d+1} = B_d B_d 1 B_d, the image of B_d under the
    substitution 0 -> 0010, 1 -> 1."""
    text = "0"
    while len(text) < length:
        text = text + text + "1" + text
    return text


def sturmian_word(alpha: Fraction, rho: Fraction, n: int) -> str:
    """Mechanical word c_i = floor((i+1)a + r) - floor(i a + r), i < n.

    ``alpha`` stands in for an irrational rotation number; its denominator
    must exceed the word length so the generated prefix is exact.

    With alpha = p/q and rho = u/v (v > 0), put M = q v and x_i = i p v + u q,
    so that i a + r = x_i / M and c_i = floor((x_i + p v) / M) -
    floor(x_i / M).  Write x_i = t M + s with 0 <= s = x_i mod M < M, which
    holds for either sign of x_i.  The t M parts cancel, so c_i =
    floor((s + p v) / M).  As 0 < p v < M, s + p v lies in [0, 2M), so c_i
    is 0 or 1, and 1 exactly when s >= M - p v = (q - p) v.  Each symbol is
    thus one modular comparison, run as C-level passes over the progression
    of the x_i.
    """
    if not 0 < alpha < 1:
        raise ValueError("rotation number must lie in (0, 1)")
    if alpha.denominator <= n:
        raise ValueError(
            f"denominator {alpha.denominator} too small for length {n}"
        )
    (p, q), (u, v) = alpha.as_integer_ratio(), rho.as_integer_ratio()
    x = range(u * q, u * q + n * p * v, p * v)
    bits = bytes(map(ge, map(mod, x, repeat(q * v)), repeat((q - p) * v)))
    # rebinding frees the 0/1 bytes before the str is made from their copy
    bits = bits.translate(_BITS_TO_ASCII)
    return bits.decode()


def _splitmix64(state: int) -> Iterator[int]:
    # fixed 64-bit splittable mix sequence; documented so outputs are
    # bit-stable across implementations
    s = state & _MASK64
    while True:
        s = (s + 0x9E3779B97F4A7C15) & _MASK64
        z = s
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        yield z ^ (z >> 31)


def bernoulli_window(p: Fraction, seed: int, n: int) -> str:
    """Reproducible pseudo-random 0/1 word: bit i is 1 iff the i-th splitmix64
    draw, scaled to [0,1), falls below p.

    An integer draw x is below p * 2^64 exactly when it is below
    ceil(p * 2^64), so the draws are compared with that integer: the bits
    are identical to comparing with the fraction."""
    if not 0 < p < 1:
        raise ValueError("success probability must lie strictly in (0, 1)")
    threshold = -(-(p.numerator << 64) // p.denominator)
    gen = _splitmix64(seed)
    return "".join(
        "1" if next(gen) < threshold else "0" for _ in range(n)
    )


class GeneratorSpec(Value):
    """Parsed CLI spec string, e.g. ``sturmian:309017/500000:rho=1/3``."""

    __slots__ = ("kind", "spec", "alpha", "rho", "p", "seed", "word_arg", "size")

    def __init__(
        self, kind, spec, alpha=None, rho=Fraction(0), p=None, seed=0,
        word_arg="", size=0,
    ):
        _set(self, "kind", kind)
        _set(self, "spec", spec)
        _set(self, "alpha", alpha)
        _set(self, "rho", rho)
        _set(self, "p", p)
        _set(self, "seed", seed)
        _set(self, "word_arg", word_arg)
        _set(self, "size", size)

    def word(self, n: int) -> str:
        if self.kind == "periodic":
            reps = n // len(self.word_arg) + 1
            return (self.word_arg * reps)[:n]
        if self.kind == "sturmian":
            return sturmian_word(self.alpha, self.rho, n)
        if self.kind == "chacon":
            return _chacon_text(n)[:n]
        if self.kind == "bernoulli":
            return bernoulli_window(self.p, self.seed, n)
        raise ValueError(f"{self.kind} oracle does not generate words")

    def oracle(self, horizon: int) -> LanguageOracle:
        """The language at this horizon: the one way to build an oracle."""
        if self.kind == "full":
            alphabet = tuple(str(s) for s in range(1, self.size + 1))
            return LanguageOracle(alphabet, horizon)
        if self.kind == "periodic":
            # The text keeps 2 * horizon // len(word) + 2 copies of the word,
            # more than 2 * horizon + len(word) symbols: the lag search of
            # assemble needs a base word of length at most the horizon at
            # offsets i and i + l, with l up to the horizon, for every start
            # i within one period.
            word = self.word_arg
            text = word * (2 * horizon // len(word) + 2)
            return LanguageOracle(tuple(sorted(set(word))), horizon, text)
        if self.kind == "chacon":
            # B_{d+1} = B_d B_d 1 B_d holds every factor of length <= |B_d|,
            # since each lies in B_d B_d or B_d 1 B_d.  Queries reach
            # 2 * horizon (a base word of length <= horizon plus a lag <=
            # horizon), and |B_{d+1}| = 3 |B_d| + 1 >= 6 * horizon + 1
            # exactly when |B_d| >= 2 * horizon.
            text = _chacon_text(6 * horizon + 1)
        else:
            # the factors of the 8 * horizon prefix, not of the subshift: a
            # Sturmian near a rational with a small denominator is nearly
            # periodic there and can miss factors, and a Bernoulli sample is
            # one sample
            text = self.word(8 * horizon)
        return LanguageOracle(("0", "1"), horizon, text)


def parse_spec(spec: str) -> GeneratorSpec:
    """Grammar: ``periodic:WORD`` | ``sturmian:P/Q[:rho=P/Q]`` | ``chacon`` |
    ``bernoulli:P/Q:seed=N`` | ``full:S``."""
    parts = spec.split(":")
    kind = parts[0]
    try:
        if kind == "periodic":
            (word,) = parts[1:]
            if not word or any(c not in "0123456789" for c in word):
                raise ValueError("period word must be decimal digits")
            return GeneratorSpec(kind, spec, word_arg=word)
        if kind in ("sturmian", "bernoulli"):
            # P/Q in (0, 1), then options of one key per kind; the last wins
            x = Fraction(parts[1])
            if not 0 < x < 1:
                raise ValueError(f"{kind} parameter must lie in (0, 1)")
            option = "rho" if kind == "sturmian" else "seed"
            value = "0"
            for extra in parts[2:]:
                key, _, value = extra.partition("=")
                if key != option:
                    raise ValueError(f"unknown {kind} option {key!r}")
            if kind == "sturmian":
                return GeneratorSpec(kind, spec, alpha=x, rho=Fraction(value))
            return GeneratorSpec(kind, spec, p=x, seed=int(value))
        if kind == "chacon":
            if parts[1:]:
                raise ValueError("chacon takes no options")
            return GeneratorSpec(kind, spec)
        if kind == "full":
            (digits,) = parts[1:]
            size = int(digits)
            if not 1 <= size <= 9:
                raise ValueError("alphabet size must be in [1, 9]")
            return GeneratorSpec(kind, spec, size=size)
    except (IndexError, ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad generator spec {spec!r}: {exc}") from exc
    raise ValueError(f"unknown generator kind {kind!r}")
