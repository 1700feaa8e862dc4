"""Exact sparse multivariate polynomial arithmetic over the rationals.

A polynomial is a dict from monomials to nonzero coefficients.  A monomial
is one Python ``int`` holding a packed exponent vector (Monagan & Pearce,
"Polynomial division using dynamic arrays, heaps, and packed exponent
vectors", CASC 2007): the exponent of variable index i sits in bits
[8i, 8i + 8), so multiplying two monomials is one integer addition and 0 is
the unit monomial.  Low indices take the low bits, so registering another
variable leaves every existing monomial valid.  A coefficient is an ``int``
while it is integral and a ``Fraction`` once a denominator appears.

The packing is private to this module: other modules read a monomial with
`exponents` and build one with `monomial`.  An 8-bit field caps exponents
at 255, so every product, power, substitution and determinant first checks
from its operands' degrees that the result stays within total degree 255,
and raises ``BudgetExceeded`` otherwise.

Variables live in a registry that assigns dense indices in insertion order,
and two polynomials interoperate only when they share a registry (mixing
registries raises ``RegistryMismatch``).

Canonical forms: equality is exact equality of term sets; printing orders
terms by descending (total degree, dense exponent vector) and factors inside
a monomial by descending variable index, so ``h^2 + 4*xp*xm`` renders
exactly like that once ``h`` precedes ``xm`` and ``xp`` in the registry.
The little-endian bytes of a monomial are its dense exponent vector, so the
canonical sort key is built without decoding any exponent.

The module also carries the exact linear algebra used everywhere else:

* determinants of polynomial matrices by Laplace expansion along the first
  row with minors memoised per column subset,
* matrix rank, either by randomised rational specialisation or by symbolic
  fraction-free (Bareiss) elimination with exact polynomial division,
* rational nullspaces in reduced-echelon parametrisation, dense and sparse.
"""

from __future__ import annotations

import ast
import math
import random
from fractions import Fraction
from typing import Iterable, Mapping, NamedTuple, Sequence

# One byte per exponent: the helpers below read monomials with int.to_bytes.
_BITS = 8
MAX_DEGREE = (1 << _BITS) - 1

_ZERO = Fraction(0)


class RegistryMismatch(ValueError):
    """Operands from different variable registries were combined."""


class MissingVariable(ValueError):
    """An evaluation or substitution does not cover a variable, or a name
    is not registered."""


class BudgetExceeded(RuntimeError):
    """A configured size budget would be exceeded."""


def _check_degree(degree: int, what: str) -> None:
    if degree > MAX_DEGREE:
        raise BudgetExceeded(
            f"{what} has total degree {degree}, above the limit {MAX_DEGREE}")


def monomial(exps: Mapping[int, int]) -> int:
    """The monomial with exponent ``e`` on variable index ``i`` for every
    ``(i, e)`` in `exps`."""
    mono = 0
    for i, e in exps.items():
        if e < 0:
            raise ValueError(f"negative exponent {e}")
        _check_degree(e, "a monomial")
        mono += e << (_BITS * i)
    return mono


def exponents(mono: int) -> list[tuple[int, int]]:
    """The ``(variable index, exponent)`` pairs of a monomial with a nonzero
    exponent, by increasing index."""
    return [(i, e) for i, e in enumerate(
        mono.to_bytes((mono.bit_length() + 7) >> 3, "little")) if e]


def _mono_degree(mono: int) -> int:
    return sum(mono.to_bytes((mono.bit_length() + 7) >> 3, "little"))


def _mono_div(num: int, den: int) -> int | None:
    """num / den as a monomial, or None when not divisible."""
    size = (max(num.bit_length(), den.bit_length()) + 7) >> 3
    if any(a < b for a, b in zip(num.to_bytes(size, "little"),
                                 den.to_bytes(size, "little"))):
        return None
    return num - den


def _canonical_key(size: int):
    """Sort key for monomials over `size` variables: (total degree, dense
    exponent vector), the vector being the monomial's little-endian bytes."""
    def key(mono: int):
        vec = mono.to_bytes(size, "little")
        return (sum(vec), vec)
    return key


def _rational(value):
    """An exact coefficient: int when integral, Fraction otherwise."""
    if type(value) is int:
        return value
    if type(value) is not Fraction:
        value = Fraction(value)
    return value.numerator if value.denominator == 1 else value


def _clean(terms: Mapping) -> dict:
    """Terms without zero coefficients, integral Fractions turned to int."""
    return {m: c if type(c) is int else _rational(c)
            for m, c in terms.items() if c}


def _addmul(acc: dict, a: Mapping, b: Mapping) -> dict:
    """Accumulate the product of term dicts `a` and `b` into `acc` in
    place; zero coefficients may remain.  Returns `acc`."""
    if len(a) > len(b):
        a, b = b, a
    get = acc.get
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            k = m1 + m2
            acc[k] = get(k, 0) + c1 * c2
    return acc


class VarId(NamedTuple):
    name: str
    index: int


class VarRegistry:
    """Assigns dense indices to unique variable names in insertion order."""

    __slots__ = ("_vars", "_by_name")

    def __init__(self, names: Iterable[str] = ()):
        self._vars: list[VarId] = []
        self._by_name: dict[str, VarId] = {}
        for name in names:
            self.add(name)

    def add(self, name: str) -> VarId:
        if name in self._by_name:
            raise ValueError(f"variable {name!r} already registered")
        vid = VarId(name, len(self._vars))
        self._vars.append(vid)
        self._by_name[name] = vid
        return vid

    def var(self, name: str) -> VarId:
        try:
            return self._by_name[name]
        except KeyError:
            raise MissingVariable(f"unknown variable {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def __len__(self) -> int:
        return len(self._vars)

    @property
    def var_ids(self) -> tuple[VarId, ...]:
        return tuple(self._vars)

    def name_of(self, index: int) -> str:
        return self._vars[index].name

    def zero(self) -> "Polynomial":
        return Polynomial._make(self, {}, 0)

    def one(self) -> "Polynomial":
        return self.const(1)

    def const(self, value) -> "Polynomial":
        c = _rational(value)
        return Polynomial._make(self, {0: c} if c else {}, 0)

    def poly(self, name, coeff=1) -> "Polynomial":
        """The variable `name` as a polynomial, optionally scaled."""
        vid = name if isinstance(name, VarId) else self.var(name)
        c = _rational(coeff)
        return Polynomial._make(self, {monomial({vid.index: 1}): c} if c else {})


class Polynomial:
    """Immutable sparse polynomial over one variable registry.

    Supports +, -, * (with polynomials or rational scalars), ** with a
    nonnegative integer, exact equality, partial derivatives, exact
    evaluation, and substitution of polynomials for variables.
    """

    __slots__ = ("registry", "terms", "_degree")

    def __init__(self, registry: VarRegistry, terms: Mapping[int, Fraction | int]):
        self.registry = registry
        self.terms = _clean(terms)
        self._degree = None

    @classmethod
    def _make(cls, registry: VarRegistry, terms: dict,
              degree: int | None = None) -> "Polynomial":
        """Wrap a clean term dict without copying it."""
        p = cls.__new__(cls)
        p.registry = registry
        p.terms = terms
        p._degree = degree
        return p

    # ------------------------------------------------------------------
    def _coerce(self, other):
        if isinstance(other, Polynomial):
            if other.registry is not self.registry:
                raise RegistryMismatch(
                    "operands come from different variable registries")
            return other
        if isinstance(other, (int, Fraction)):
            return self.registry.const(other)
        return None

    def _plus(self, other, sign: int):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        out = dict(self.terms)
        get = out.get
        if sign > 0:
            for m, c in o.terms.items():
                out[m] = get(m, 0) + c
        else:
            for m, c in o.terms.items():
                out[m] = get(m, 0) - c
        return self._make(self.registry, _clean(out))

    def __add__(self, other):
        return self._plus(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._plus(other, -1)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return self._make(self.registry,
                          {m: -c for m, c in self.terms.items()}, self._degree)

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            c = _rational(other)
            if not c:
                return self.registry.zero()
            return self._make(self.registry,
                              _clean({m: c * v for m, v in self.terms.items()}),
                              self._degree)
        o = self._coerce(other)
        if not self.terms or not o.terms:
            return self.registry.zero()
        # over a field the top-degree parts never cancel, so this is exact
        degree = self.total_degree() + o.total_degree()
        _check_degree(degree, "a product")
        return self._make(self.registry, _clean(_addmul({}, self.terms, o.terms)),
                          degree)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise ValueError("polynomial powers take nonnegative integers")
        _check_degree(self.total_degree() * k, "a power")
        result = self.registry.one()
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def __eq__(self, other):
        if isinstance(other, Polynomial):
            return self.registry is other.registry and self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return self.terms == self.registry.const(other).terms
        return NotImplemented

    __hash__ = None  # mutable dict inside; equality is structural

    def __bool__(self) -> bool:
        return bool(self.terms)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    # ------------------------------------------------------------------
    def total_degree(self) -> int:
        if self._degree is None:
            self._degree = max(map(_mono_degree, self.terms), default=0)
        return self._degree

    def support_indices(self) -> frozenset[int]:
        union = 0
        for m in self.terms:
            union |= m
        return frozenset(i for i, _ in exponents(union))

    def variables(self) -> tuple[VarId, ...]:
        ids = sorted(self.support_indices())
        return tuple(self.registry.var_ids[i] for i in ids)

    def coefficient(self, mono: Mapping[str, int]) -> Fraction:
        """Coefficient of the monomial given as {name: exponent}."""
        key = monomial({self.registry.var(n).index: e
                        for n, e in mono.items()})
        return Fraction(self.terms.get(key, 0))

    def partial(self, v) -> "Polynomial":
        vid = v if isinstance(v, VarId) else self.registry.var(v)
        shift = _BITS * vid.index
        unit = 1 << shift
        out = {}
        for m, c in self.terms.items():
            e = (m >> shift) & MAX_DEGREE
            if e:
                out[m - unit] = c * e
        return self._make(self.registry, _clean(out))

    def _resolve_assignment(self, assignment: Mapping) -> dict[int, Fraction]:
        amap: dict[int, Fraction] = {}
        for k, v in assignment.items():
            vid = k if isinstance(k, VarId) else self.registry.var(k)
            amap[vid.index] = _rational(v)
        return amap

    def eval(self, assignment: Mapping) -> Fraction:
        """Exact evaluation; every variable present must be assigned."""
        amap = self._resolve_assignment(assignment)
        total = 0
        for m, c in self.terms.items():
            prod = c
            for i, e in exponents(m):
                if i not in amap:
                    raise MissingVariable(
                        f"no value for {self.registry.name_of(i)!r}")
                prod *= amap[i] ** e
            total += prod
        return Fraction(total)

    def substitute(self, images: Mapping) -> "Polynomial":
        """Ring homomorphism sending each variable to its image polynomial.

        All images must share one registry (the target); variables of self
        without an image raise MissingVariable.  With no images the
        polynomial is returned unchanged.
        """
        if not images:
            return self
        imap: dict[int, Polynomial] = {}
        target: VarRegistry | None = None
        for k, img in images.items():
            vid = k if isinstance(k, VarId) else self.registry.var(k)
            if not isinstance(img, Polynomial):
                raise TypeError("substitution images must be polynomials")
            if target is None:
                target = img.registry
            elif img.registry is not target:
                raise RegistryMismatch(
                    "substitution images span several registries")
            imap[vid.index] = img
        assert target is not None
        # Work fraction-free: image i is scaled[i] / den[i] with integer
        # coefficients, and the whole sum is carried times the lcm of the
        # term denominators, so only the final division makes Fractions.
        den = {i: math.lcm(*(c.denominator for c in img.terms.values()
                             if type(c) is not int))
               for i, img in imap.items()}
        scaled = {i: img * den[i] for i, img in imap.items()}
        # decode every monomial once, checking coverage and the degree bound
        decoded = []
        top = 0
        common = 1
        for m, c in self.terms.items():
            exps = exponents(m)
            degree = 0
            d = 1 if type(c) is int else c.denominator
            for i, e in exps:
                if i not in imap:
                    raise MissingVariable(
                        f"no image for {self.registry.name_of(i)!r}")
                degree += e * imap[i].total_degree()
                d *= den[i] ** e
            top = max(top, degree)
            common = math.lcm(common, d)
            decoded.append((exps, c, d))
        _check_degree(top, "a substitution")
        pow_cache: dict[tuple[int, int], dict] = {}
        acc: dict = {}
        get = acc.get
        for exps, c, d in decoded:
            num = c if type(c) is int else c.numerator
            term = {0: num * (common // d)}
            for i, e in exps:
                p = pow_cache.get((i, e))
                if p is None:
                    p = pow_cache[(i, e)] = (scaled[i] ** e).terms
                term = _addmul({}, term, p)
            for k, v in term.items():
                acc[k] = get(k, 0) + v
        if common != 1:
            acc = {k: Fraction(v, common) for k, v in acc.items()}
        return Polynomial._make(target, _clean(acc))

    # ------------------------------------------------------------------
    def sorted_terms(self) -> list[tuple[int, Fraction | int]]:
        """Terms in canonical order: descending (degree, exponent vector)."""
        terms = self.terms
        return [(m, terms[m]) for m in sorted(
            terms, key=_canonical_key(len(self.registry)), reverse=True)]

    def _mono_text(self, m: int) -> str:
        parts = []
        for i, e in reversed(exponents(m)):
            name = self.registry.name_of(i)
            parts.append(name if e == 1 else f"{name}^{e}")
        return "*".join(parts)

    def text(self) -> str:
        if not self.terms:
            return "0"
        chunks: list[str] = []
        for m, c in self.sorted_terms():
            mono = self._mono_text(m)
            mag = abs(c)
            if not mono:
                body = str(mag)
            elif mag == 1:
                body = mono
            else:
                body = f"{mag}*{mono}"
            if not chunks:
                chunks.append(body if c > 0 else f"-{body}")
            else:
                chunks.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(chunks)

    def __str__(self) -> str:
        return self.text()

    def __repr__(self) -> str:
        return f"Polynomial({self.text()})"

    def to_json(self) -> dict:
        names = [v.name for v in self.registry.var_ids]
        return {"terms": [
            {"coeff": str(c),
             "monomial": {names[i]: e for i, e in reversed(exponents(m))}}
            for m, c in self.sorted_terms()]}

    @classmethod
    def from_json(cls, registry: VarRegistry, data: Mapping) -> "Polynomial":
        out: dict = {}
        for term in data["terms"]:
            mono = monomial({registry.var(n).index: int(e)
                             for n, e in term["monomial"].items()})
            out[mono] = out.get(mono, 0) + _rational(Fraction(term["coeff"]))
        return cls(registry, out)


def poly_sum(registry: VarRegistry, polys: Iterable[Polynomial]) -> Polynomial:
    """Sum of polynomials over `registry`, accumulated in one dict."""
    acc: dict = {}
    get = acc.get
    for p in polys:
        if p.registry is not registry:
            raise RegistryMismatch(
                "operands come from different variable registries")
        for m, c in p.terms.items():
            acc[m] = get(m, 0) + c
    return Polynomial._make(registry, _clean(acc))


def parse_polynomial(text: str, registry: VarRegistry) -> Polynomial:
    """Parse an arithmetic expression (+, -, *, /, **, ^ and parentheses)
    over registered variable names and rational literals."""
    try:
        node = ast.parse(text.replace("^", "**").strip(), mode="eval").body
    except SyntaxError as exc:
        raise ValueError(f"cannot parse polynomial: {exc}") from None

    def walk(nd) -> Polynomial:
        if isinstance(nd, ast.BinOp):
            if isinstance(nd.op, ast.Add):
                return walk(nd.left) + walk(nd.right)
            if isinstance(nd.op, ast.Sub):
                return walk(nd.left) - walk(nd.right)
            if isinstance(nd.op, ast.Mult):
                return walk(nd.left) * walk(nd.right)
            if isinstance(nd.op, ast.Div):
                right = walk(nd.right)
                if right.support_indices():
                    raise ValueError("division only by rational constants")
                c = right.coefficient({})
                if not c:
                    raise ValueError("division by zero")
                return walk(nd.left) * (Fraction(1) / c)
            if isinstance(nd.op, ast.Pow):
                right = nd.right
                if isinstance(right, ast.Constant) and isinstance(right.value, int):
                    return walk(nd.left) ** right.value
                raise ValueError("exponents must be literal nonnegative integers")
            raise ValueError("unsupported operator")
        if isinstance(nd, ast.UnaryOp):
            if isinstance(nd.op, ast.USub):
                return -walk(nd.operand)
            if isinstance(nd.op, ast.UAdd):
                return walk(nd.operand)
            raise ValueError("unsupported unary operator")
        if isinstance(nd, ast.Name):
            return registry.poly(nd.id)
        if isinstance(nd, ast.Constant):
            if isinstance(nd.value, int):
                return registry.const(nd.value)
            if isinstance(nd.value, float):
                return registry.const(Fraction(str(nd.value)))
            raise ValueError(f"unsupported literal {nd.value!r}")
        raise ValueError(f"unsupported expression node {type(nd).__name__}")

    return walk(node)


# ----------------------------------------------------------------------
# Matrices


class PolyMatrix:
    """Dense rectangular matrix of polynomials from one registry."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: Sequence[Polynomial]):
        if rows < 1 or cols < 1:
            raise ValueError("matrix dimensions must be positive")
        if len(entries) != rows * cols:
            raise ValueError("entry count does not match dimensions")
        reg = entries[0].registry
        for e in entries:
            if e.registry is not reg:
                raise RegistryMismatch("matrix entries mix registries")
        self.rows = rows
        self.cols = cols
        self.entries = tuple(entries)

    @classmethod
    def from_rows(cls, rows_: Sequence[Sequence[Polynomial]]) -> "PolyMatrix":
        nrows = len(rows_)
        ncols = len(rows_[0])
        flat: list[Polynomial] = []
        for r in rows_:
            if len(r) != ncols:
                raise ValueError("ragged rows")
            flat.extend(r)
        return cls(nrows, ncols, flat)

    @property
    def registry(self) -> VarRegistry:
        return self.entries[0].registry

    def at(self, i: int, j: int) -> Polynomial:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[Polynomial, ...]:
        return self.entries[i * self.cols:(i + 1) * self.cols]

    def transpose(self) -> "PolyMatrix":
        return PolyMatrix(self.cols, self.rows,
                          [self.at(i, j) for j in range(self.cols)
                           for i in range(self.rows)])

    def __matmul__(self, other: "PolyMatrix") -> "PolyMatrix":
        if self.cols != other.rows:
            raise ValueError("inner dimensions differ")
        out: list[Polynomial] = []
        for i in range(self.rows):
            for j in range(other.cols):
                products = []
                for k in range(self.cols):
                    a = self.at(i, k)
                    b = other.at(k, j)
                    if a and b:
                        products.append(a * b)
                out.append(poly_sum(self.registry, products))
        return PolyMatrix(self.rows, other.cols, out)

    def __add__(self, other: "PolyMatrix") -> "PolyMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return PolyMatrix(self.rows, self.cols,
                          [a + b for a, b in zip(self.entries, other.entries)])

    def __sub__(self, other: "PolyMatrix") -> "PolyMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return PolyMatrix(self.rows, self.cols,
                          [a - b for a, b in zip(self.entries, other.entries)])

    def __neg__(self) -> "PolyMatrix":
        return PolyMatrix(self.rows, self.cols, [-e for e in self.entries])

    def map(self, fn) -> "PolyMatrix":
        return PolyMatrix(self.rows, self.cols, [fn(e) for e in self.entries])

    def __eq__(self, other):
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        return (self.rows, self.cols) == (other.rows, other.cols) and \
            all(a == b for a, b in zip(self.entries, other.entries))

    __hash__ = None

    def is_symmetric(self) -> bool:
        return self.rows == self.cols and all(
            self.at(i, j) == self.at(j, i)
            for i in range(self.rows) for j in range(i + 1, self.cols))

    def is_antisymmetric(self) -> bool:
        if self.rows != self.cols:
            return False
        return all(self.at(i, j) == -self.at(j, i)
                   for i in range(self.rows) for j in range(i, self.cols))

    def eval(self, assignment: Mapping) -> list[list[Fraction]]:
        return [[self.at(i, j).eval(assignment) for j in range(self.cols)]
                for i in range(self.rows)]

    def constant_entries(self) -> list[list[Fraction]]:
        """Entries as rationals; raises if any entry has positive degree."""
        out: list[list[Fraction]] = []
        for i in range(self.rows):
            row = []
            for j in range(self.cols):
                e = self.at(i, j)
                if e.support_indices():
                    raise ValueError("matrix entry is not constant")
                row.append(e.coefficient({}))
            out.append(row)
        return out


def det(matrix: PolyMatrix) -> Polynomial:
    """Determinant by Laplace expansion along the first remaining row,
    with minors memoised per column subset.  Each minor accumulates its
    products in one dict and drops zero coefficients once."""
    if matrix.rows != matrix.cols:
        raise ValueError("determinant of a non-square matrix")
    size = matrix.rows
    # every term of the determinant takes one entry from each row
    _check_degree(sum(max(e.total_degree() for e in matrix.row(i))
                      for i in range(size)), "a determinant")
    # entries[row][col] = (terms, negated terms)
    entries = [[(e.terms, (-e).terms) for e in matrix.row(i)]
               for i in range(size)]
    memo: dict[int, dict] = {0: {0: 1}}

    def minor(colmask: int) -> dict:
        cached = memo.get(colmask)
        if cached is not None:
            return cached
        row = entries[size - bin(colmask).count("1")]
        acc: dict = {}
        negate = 0
        mask = colmask
        while mask:
            low = mask & -mask
            entry = row[low.bit_length() - 1][negate]
            if entry:
                _addmul(acc, entry, minor(colmask ^ low))
            negate ^= 1
            mask ^= low
        result = memo[colmask] = _clean(acc)
        return result

    return Polynomial._make(matrix.registry, minor((1 << size) - 1))


def _leading(p: Polynomial) -> tuple[int, Fraction | int]:
    m = max(p.terms, key=_canonical_key(len(p.registry)))
    return m, p.terms[m]


def exact_div(num: Polynomial, den: Polynomial) -> Polynomial:
    """Exact polynomial division; raises ArithmeticError when not exact."""
    if den.is_zero:
        raise ZeroDivisionError("polynomial division by zero")
    reg = num.registry
    dm, dc = _leading(den)
    quo = reg.zero()
    rem = num
    while rem.terms:
        rm, rc = _leading(rem)
        qm = _mono_div(rm, dm)
        if qm is None:
            raise ArithmeticError("polynomial division is not exact")
        q = Polynomial(reg, {qm: Fraction(rc) / dc})
        quo = quo + q
        rem = rem - q * den
    return quo


def _rank_fraction_free(matrix: PolyMatrix) -> int:
    """Symbolic rank via Bareiss fraction-free elimination."""
    m = [[matrix.at(i, j) for j in range(matrix.cols)]
         for i in range(matrix.rows)]
    reg = matrix.registry
    prev = reg.one()
    r = 0
    for c in range(matrix.cols):
        pivot = next((i for i in range(r, matrix.rows) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        for i in range(r + 1, matrix.rows):
            if not any(m[i][cc] for cc in range(c, matrix.cols)):
                continue
            for cc in range(c + 1, matrix.cols):
                num = m[r][c] * m[i][cc] - m[i][c] * m[r][cc]
                m[i][cc] = exact_div(num, prev) if not num.is_zero else num
            m[i][c] = reg.zero()
        prev = m[r][c]
        r += 1
        if r == matrix.rows:
            break
    return r


def rank(matrix: PolyMatrix, strategy: str = "specialize", *,
         seed: int = 0, trials: int = 3) -> int:
    """Rank of a polynomial matrix.

    specialize: evaluate at random rational points (numerators uniform in
    [-10^6, 10^6]) and take the maximum exact rank over `trials` draws.
    exact_symbolic: fraction-free symbolic elimination.
    """
    if strategy == "exact_symbolic":
        return _rank_fraction_free(matrix)
    if strategy != "specialize":
        raise ValueError(f"unknown rank strategy {strategy!r}")
    rng = random.Random(seed)
    best = 0
    var_ids = matrix.registry.var_ids
    for _ in range(max(1, trials)):
        assignment = {v: Fraction(rng.randint(-10 ** 6, 10 ** 6))
                      for v in var_ids}
        best = max(best, rank_rational(matrix.eval(assignment)))
    return best


# ----------------------------------------------------------------------
# Rational linear algebra


def rank_rational(rows: Sequence[Sequence[Fraction]]) -> int:
    """Exact rank of a rational matrix by Gaussian elimination."""
    m = [list(map(Fraction, r)) for r in rows]
    if not m:
        return 0
    ncols = len(m[0])
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = Fraction(1) / m[r][c]
        for i in range(r + 1, len(m)):
            if m[i][c]:
                f = m[i][c] * inv
                for cc in range(c, ncols):
                    m[i][cc] -= f * m[r][cc]
        r += 1
        if r == len(m):
            break
    return r


def rref(rows: Sequence[Sequence[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form; returns (matrix, pivot column list)."""
    m = [list(map(Fraction, r)) for r in rows]
    pivots: list[int] = []
    if not m:
        return m, pivots
    ncols = len(m[0])
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = Fraction(1) / m[r][c]
        m[r] = [v * inv for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


def nullspace(rows: Sequence[Sequence[Fraction]],
              ncols: int | None = None) -> list[list[Fraction]]:
    """Basis of the right nullspace, one vector per free column, in the
    deterministic reduced-echelon parametrisation."""
    if ncols is None:
        if not rows:
            raise ValueError("ncols required for an empty system")
        ncols = len(rows[0])
    reduced, pivots = rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis: list[list[Fraction]] = []
    for f in free:
        v = [_ZERO] * ncols
        v[f] = Fraction(1)
        for r_i, p in enumerate(pivots):
            v[p] = -reduced[r_i][f]
        basis.append(v)
    return basis


def sparse_nullspace(rows: Iterable[Mapping[int, Fraction]],
                     ncols: int) -> list[list[Fraction]]:
    """Nullspace basis for a system given as sparse rows {col: coeff}.

    Produces the same reduced-echelon parametrisation as `nullspace`,
    independent of row order redundancy.
    """
    pivot_rows: dict[int, dict[int, Fraction]] = {}
    for raw in rows:
        r = {c: Fraction(v) for c, v in raw.items() if v}
        # eliminate every pivot column present, smallest first
        while r:
            pcols = sorted(c for c in r if c in pivot_rows)
            if not pcols:
                break
            c = pcols[0]
            f = r.pop(c)
            for cc, vv in pivot_rows[c].items():
                if cc == c:
                    continue
                nv = r.get(cc, _ZERO) - f * vv
                if nv:
                    r[cc] = nv
                else:
                    r.pop(cc, None)
        if not r:
            continue
        c = min(r)
        inv = Fraction(1) / r[c]
        row = {cc: vv * inv for cc, vv in r.items()}
        # keep earlier pivot rows fully reduced
        for pc, pr in pivot_rows.items():
            if c in pr:
                f = pr.pop(c)
                for cc, vv in row.items():
                    if cc == c:
                        continue
                    nv = pr.get(cc, _ZERO) - f * vv
                    if nv:
                        pr[cc] = nv
                    else:
                        pr.pop(cc, None)
        pivot_rows[c] = row
    free = [c for c in range(ncols) if c not in pivot_rows]
    basis: list[list[Fraction]] = []
    for f in free:
        v = [_ZERO] * ncols
        v[f] = Fraction(1)
        for p, pr in pivot_rows.items():
            if f in pr:
                v[p] = -pr[f]
        basis.append(v)
    return basis
