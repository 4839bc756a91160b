"""Exact scalars, dense constraint-function tensors, and flattenings.

Scalars are plain ``int``/``fractions.Fraction`` values, plus
:class:`GaussianRational` for exact complex numbers ``a + b*i`` with rational
parts.  No floating point appears anywhere; every comparison is exact.

Index conventions (all other modules depend on these):

* Domain elements are ``0 .. q-1`` internally.  The JSON boundary (``io``)
  converts to the 1-based external convention.
* A constraint function of arity ``n`` stores its ``q**n`` entries in
  row-major base-``q`` order with the *first* argument most significant.
* ``flatten(F, m, d)`` produces the ``q**m x q**d`` matrix whose row index
  has digits ``(x_1, ..., x_m)`` (``x_1`` most significant) and whose column
  index has *reversed* digits: the least significant column digit is
  ``x_{m+1}`` and the most significant is ``x_n``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm
from typing import Callable, Dict, Iterable, Optional, Sequence, Tuple, Union


class AlgebraError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Scalars
# ---------------------------------------------------------------------------

def _norm_rational(x) -> Union[int, Fraction]:
    if type(x) is int:
        return x
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else x
    f = Fraction(x)
    return int(f) if f.denominator == 1 else f


class GaussianRational:
    """Exact complex scalar ``re + im*i`` with rational components.

    Arithmetic demotes to ``int``/``Fraction`` whenever the imaginary part
    cancels, so purely rational computations never carry this wrapper.
    """

    __slots__ = ("re", "im")

    def __init__(self, re, im):
        object.__setattr__(self, "re", _norm_rational(re))
        object.__setattr__(self, "im", _norm_rational(im))

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __eq__(self, other):
        if isinstance(other, GaussianRational):
            return self.re == other.re and self.im == other.im
        if isinstance(other, (int, Fraction)):
            return self.im == 0 and self.re == other
        return NotImplemented

    def __hash__(self):
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __bool__(self):
        return self.re != 0 or self.im != 0

    def __neg__(self):
        return gaussian(-self.re, -self.im)

    def __add__(self, other):
        if isinstance(other, GaussianRational):
            return gaussian(self.re + other.re, self.im + other.im)
        if isinstance(other, (int, Fraction)):
            return gaussian(self.re + other, self.im)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, GaussianRational):
            return gaussian(
                self.re * other.re - self.im * other.im,
                self.re * other.im + self.im * other.re,
            )
        if isinstance(other, (int, Fraction)):
            return gaussian(self.re * other, self.im * other)
        return NotImplemented

    __rmul__ = __mul__

    def _inverse(self):
        nrm = Fraction(self.re) ** 2 + Fraction(self.im) ** 2
        if nrm == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return gaussian(Fraction(self.re) / nrm, -Fraction(self.im) / nrm)

    def __truediv__(self, other):
        if isinstance(other, GaussianRational):
            return self * other._inverse()
        if isinstance(other, (int, Fraction)):
            if other == 0:
                raise ZeroDivisionError("division by zero")
            return gaussian(Fraction(self.re) / other, Fraction(self.im) / other)
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return other * self._inverse()
        return NotImplemented

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            return NotImplemented
        result: Scalar = 1
        base: Scalar = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result


Scalar = Union[int, Fraction, GaussianRational]


def gaussian(re, im) -> Scalar:
    """Build ``re + im*i``, demoting to a rational when ``im == 0``."""
    im = _norm_rational(im)
    if im == 0:
        return _norm_rational(re)
    return GaussianRational(re, im)


def conjugate_scalar(x: Scalar) -> Scalar:
    if isinstance(x, GaussianRational):
        return gaussian(x.re, -x.im)
    return x


def scalar_inverse(x: Scalar) -> Scalar:
    if isinstance(x, GaussianRational):
        return x._inverse()
    if x == 0:
        raise ZeroDivisionError("inverse of zero")
    return _norm_rational(Fraction(1, 1) / Fraction(x))


def integer_form(values: Tuple[Scalar, ...]) -> Tuple[Tuple[Scalar, ...], int]:
    """``(values * d, d)`` for the lcm ``d`` of the denominators of the
    values (of their parts, for Gaussian values): every scaled value is an
    ``int`` or a Gaussian integer.  Without denominators and ``Fraction``
    values the tuple itself comes back, with ``d == 1``."""
    if all(type(x) is int for x in values):  # the common case, in one pass
        return values, 1
    den = 1
    for x in values:
        if isinstance(x, GaussianRational):
            den = lcm(den, x.re.denominator, x.im.denominator)
        elif isinstance(x, Fraction):
            den = lcm(den, x.denominator)
    if den == 1 and not any(isinstance(x, Fraction) for x in values):
        return values, 1
    scaled = tuple(
        x * den if isinstance(x, GaussianRational) else _norm_rational(x * den) for x in values
    )
    return scaled, den


def exact_quotient(value: Scalar, den: int) -> Scalar:
    """``value / den`` for an ``int`` or Gaussian-integer ``value`` and an
    integer ``den >= 1``, normalized like every scalar here: a whole number
    is an ``int``."""
    if den == 1 or not value:
        return value
    if isinstance(value, GaussianRational):
        return gaussian(Fraction(value.re, den), Fraction(value.im, den))
    return _norm_rational(Fraction(value, den))


def scalar_sort_key(x: Scalar):
    if isinstance(x, GaussianRational):
        return (x.re, x.im)
    return (x, 0)


def parse_scalar(text) -> Scalar:
    """Parse ``"p/q"``, ``"p/q+r/si"`` and friends into an exact scalar."""
    if isinstance(text, int):
        return text
    if isinstance(text, (Fraction, GaussianRational)):
        return text
    s = str(text).strip().replace(" ", "")
    if not s:
        raise AlgebraError("empty scalar string")
    if not s.endswith("i"):
        try:
            return _norm_rational(Fraction(s))
        except (ValueError, ZeroDivisionError) as exc:
            raise AlgebraError(f"bad scalar {text!r}") from exc
    body = s[:-1]
    # Split off the imaginary term at the last sign that starts it.
    split = -1
    for pos in range(len(body) - 1, 0, -1):
        if body[pos] in "+-" and body[pos - 1] not in "+-/":
            split = pos
            break
    try:
        if split == -1:
            real_part = Fraction(0)
            imag_text = body
        else:
            real_part = Fraction(body[:split])
            imag_text = body[split:]
        if imag_text in ("", "+"):
            imag_part = Fraction(1)
        elif imag_text == "-":
            imag_part = Fraction(-1)
        else:
            imag_part = Fraction(imag_text)
    except (ValueError, ZeroDivisionError) as exc:
        raise AlgebraError(f"bad scalar {text!r}") from exc
    return gaussian(real_part, imag_part)


def format_scalar(x: Scalar) -> str:
    if isinstance(x, GaussianRational):
        re, im = x.re, x.im
        sign = "+" if Fraction(im) >= 0 else "-"
        return f"{re}{sign}{abs(Fraction(im))}i"
    return str(_norm_rational(x))


# ---------------------------------------------------------------------------
# Base-q index helpers
# ---------------------------------------------------------------------------

def tuple_to_index(xs: Sequence[int], q: int) -> int:
    """Base-q integer of ``xs`` with the first entry most significant."""
    idx = 0
    for x in xs:
        idx = idx * q + x
    return idx


def all_tuples(q: int, n: int):
    """All of ``[q]^n`` in lexicographic (row-major) order; none for
    ``q < 1 <= n``, where ``[q]^n`` is empty."""
    if n == 0:
        yield ()
        return
    if q < 1:
        return
    cur = [0] * n
    while True:
        yield tuple(cur)
        pos = n - 1
        while pos >= 0 and cur[pos] == q - 1:
            cur[pos] = 0
            pos -= 1
        if pos < 0:
            return
        cur[pos] += 1


# ---------------------------------------------------------------------------
# Union-find
# ---------------------------------------------------------------------------

def union_find(items: Iterable, pairs: Iterable[Tuple], key: Optional[Callable] = None) -> Dict:
    """Classes of the equivalence closure of ``pairs`` over ``items``.

    Maps every item to the root of its class: its least member under
    ``key``, or by default the member listed first.  A union links the
    larger root under the smaller one, so roots do not depend on the order
    of ``pairs``.
    """
    rank = {x: (i if key is None else key(x)) for i, x in enumerate(items)}
    parent = {x: x for x in rank}

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            if rank[rb] < rank[ra]:
                ra, rb = rb, ra
            parent[rb] = ra
    return {x: find(x) for x in parent}


# ---------------------------------------------------------------------------
# Constraint functions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConstraintFunction:
    """Dense rank-``arity`` tensor over domain ``{0, ..., q-1}``."""

    q: int
    arity: int
    entries: Tuple[Scalar, ...]

    def __post_init__(self):
        if self.q < 1:
            raise AlgebraError(f"domain size must be >= 1, got {self.q}")
        if self.arity < 1:
            raise AlgebraError(f"arity must be >= 1, got {self.arity}")
        entries = tuple(self.entries)
        object.__setattr__(self, "entries", entries)
        if len(entries) != self.q ** self.arity:
            raise AlgebraError(
                f"expected {self.q ** self.arity} entries, got {len(entries)}"
            )
        object.__setattr__(self, "_hash", hash((self.q, self.arity, entries)))
        # the entries times the lcm of their denominators, and that lcm
        int_entries, den = integer_form(entries)
        object.__setattr__(self, "_int_entries", int_entries)
        object.__setattr__(self, "_den", den)

    def __hash__(self):
        return self._hash

    def __call__(self, xs: Sequence[int]) -> Scalar:
        return evaluate(self, xs)

    def is_rational(self) -> bool:
        return all(not isinstance(e, GaussianRational) for e in self.entries)


def evaluate(fn: ConstraintFunction, xs: Sequence[int]) -> Scalar:
    if len(xs) != fn.arity:
        raise AlgebraError(f"expected {fn.arity} arguments, got {len(xs)}")
    idx = 0
    q = fn.q
    for x in xs:
        if not 0 <= x < q:
            raise AlgebraError(f"domain element {x} out of range for q={q}")
        idx = idx * q + x
    return fn.entries[idx]


def conjugate_function(fn: ConstraintFunction) -> ConstraintFunction:
    if fn.is_rational():
        return fn
    return ConstraintFunction(fn.q, fn.arity, tuple(conjugate_scalar(e) for e in fn.entries))


@lru_cache(maxsize=None)
def permute_domain(fn: ConstraintFunction, sigma: Tuple[int, ...]) -> ConstraintFunction:
    """The function ``x -> fn(sigma(x))`` for a domain permutation ``sigma``."""
    q, n = fn.q, fn.arity
    if sorted(sigma) != list(range(q)):
        raise AlgebraError(f"{sigma} is not a permutation of range({q})")
    entries = [fn.entries[tuple_to_index([sigma[x] for x in xs], q)] for xs in all_tuples(q, n)]
    return ConstraintFunction(q, n, tuple(entries))


def equality_function(q: int, n: int) -> ConstraintFunction:
    entries = [int(len(set(xs)) <= 1) for xs in all_tuples(q, n)]
    return ConstraintFunction(q, n, tuple(entries))


def constant_function(q: int, n: int, value: Scalar = 1) -> ConstraintFunction:
    return ConstraintFunction(q, n, (value,) * (q ** n))


def unary_function(values: Sequence[Scalar]) -> ConstraintFunction:
    return ConstraintFunction(len(values), 1, tuple(values))


def binary_from_rows(rows: Sequence[Sequence[Scalar]]) -> ConstraintFunction:
    q = len(rows)
    entries = []
    for row in rows:
        if len(row) != q:
            raise AlgebraError("binary function needs a square table")
        entries.extend(row)
    return ConstraintFunction(q, 2, tuple(entries))


# ---------------------------------------------------------------------------
# Matrices (flattenings, signature matrices, intertwiners)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Matrix:
    """Immutable exact matrix; rows/cols are plain integer indices."""

    data: Tuple[Tuple[Scalar, ...], ...]

    def __post_init__(self):
        data = tuple(tuple(row) for row in self.data)
        object.__setattr__(self, "data", data)
        if data and any(len(row) != len(data[0]) for row in data):
            raise AlgebraError("ragged matrix")
        object.__setattr__(self, "_hash", hash(data))

    def __hash__(self):
        return self._hash

    @property
    def rows(self) -> int:
        return len(self.data)

    @property
    def cols(self) -> int:
        return len(self.data[0]) if self.data else 0

    @staticmethod
    def from_rows(rows: Iterable[Iterable[Scalar]]) -> "Matrix":
        return Matrix(tuple(tuple(r) for r in rows))

    @staticmethod
    def identity(n: int) -> "Matrix":
        return Matrix(tuple(tuple(int(i == j) for j in range(n)) for i in range(n)))

    def __getitem__(self, rc):
        r, c = rc
        return self.data[r][c]

    def mul(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise AlgebraError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        out = [[0] * other.cols for _ in range(self.rows)]
        for i, row in enumerate(self.data):
            out_i = out[i]
            for k, a in enumerate(row):
                if a == 0:
                    continue
                other_k = other.data[k]
                for j, b in enumerate(other_k):
                    if b != 0:
                        out_i[j] = out_i[j] + a * b
        return Matrix(tuple(tuple(r) for r in out))

    def kron(self, other: "Matrix") -> "Matrix":
        out = []
        for r1 in self.data:
            for r2 in other.data:
                row = []
                for a in r1:
                    if a == 0:
                        row.extend([0] * len(r2))
                    else:
                        row.extend(a * b for b in r2)
                out.append(tuple(row))
        return Matrix(tuple(out))

    def conjugate_transpose(self) -> "Matrix":
        return Matrix(tuple(
            tuple(conjugate_scalar(self.data[r][c]) for r in range(self.rows))
            for c in range(self.cols)
        ))

    def flat(self) -> Tuple[Scalar, ...]:
        return tuple(x for row in self.data for x in row)


def flatten(fn: ConstraintFunction, m: int, d: int) -> Matrix:
    """``F^{m,d}``: the ``q**m x q**d`` flattening with reversed column digits."""
    if m < 0 or d < 0 or m + d != fn.arity:
        raise AlgebraError(f"need m + d == arity ({fn.arity}), got m={m}, d={d}")
    q = fn.q
    out = [[0] * (q ** d) for _ in range(q ** m)]
    for xs in all_tuples(q, fn.arity):
        r = tuple_to_index(xs[:m], q)
        c = tuple_to_index(tuple(reversed(xs[m:])), q)
        out[r][c] = fn.entries[tuple_to_index(xs, q)]
    return Matrix(tuple(tuple(row) for row in out))


def unflatten(mat: Matrix, q: int, m: int, d: int) -> ConstraintFunction:
    """Inverse of :func:`flatten` for a matrix of shape ``q**m x q**d``."""
    if mat.rows != q ** m or mat.cols != q ** d:
        raise AlgebraError("matrix shape does not match (q, m, d)")
    n = m + d
    entries = [0] * (q ** n)
    for xs in all_tuples(q, n):
        r = tuple_to_index(xs[:m], q)
        c = tuple_to_index(tuple(reversed(xs[m:])), q)
        entries[tuple_to_index(xs, q)] = mat.data[r][c]
    return ConstraintFunction(q, n, tuple(entries))
