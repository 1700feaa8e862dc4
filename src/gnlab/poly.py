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
at 255, so `monomial` and every product, power, substitution, derivation
and determinant first check that the result stays within total degree
255 (from the operands' degrees), and raise ``BudgetExceeded`` otherwise.
The degree helper relies on that bound.

Variables live in a registry that assigns dense indices in insertion order,
and two polynomials interoperate only when they share a registry (mixing
registries raises ``RegistryMismatch``).

Canonical forms: equality is exact equality of term sets; printing orders
terms by descending (total degree, dense exponent vector) and factors inside
a monomial by descending variable index, so ``h^2 + 4*xp*xm`` renders
exactly like that once ``h`` precedes ``xm`` and ``xp`` in the registry.
The little-endian bytes of a monomial are its dense exponent vector, so the
canonical order is sorted on them with no Python call per monomial.

The module also carries the exact linear algebra used everywhere else:

* determinants of polynomial matrices, given as their rows, by Laplace's
  expansion in complementary minors of the top and bottom halves of the
  rows, each half's minors memoised per column subset,
* one exact eliminator over sparse rational rows, which gives the rank of
  a rational system and its nullspace in reduced-echelon parametrisation.
"""

from __future__ import annotations

import ast
import json
import math
import operator
from fractions import Fraction
from itertools import combinations, repeat
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

# One byte per exponent: the helpers below read monomials with int.to_bytes.
_BITS = 8
MAX_DEGREE = (1 << _BITS) - 1
# Variables per memoised group when terms are written as text or JSON
_RENDER_GROUP = 16

_ZERO = Fraction(0)


class RegistryMismatch(ValueError):
    """Operands from different variable registries were combined."""


class MissingVariable(ValueError):
    """A substitution does not cover a variable, or a name is not
    registered."""


class BudgetExceeded(RuntimeError):
    """A configured size budget would be exceeded."""


def _check_degree(degree: int, what: str) -> None:
    if degree > MAX_DEGREE:
        raise BudgetExceeded(
            f"{what} has total degree {degree}, above the limit {MAX_DEGREE}")


def monomial(exps: Mapping[int, int]) -> int:
    """The monomial with exponent ``e`` on variable index ``i`` for every
    ``(i, e)`` in `exps`; its total degree is checked against the cap."""
    mono = 0
    degree = 0
    for i, e in exps.items():
        if e < 0:
            raise ValueError(f"negative exponent {e}")
        degree += e
        mono += e << (_BITS * i)
    _check_degree(degree, "a monomial")
    return mono


def variable_mask(indices: Iterable[int]) -> int:
    """Every exponent bit of the given variable indices: a monomial ANDed
    with it keeps only its part in those variables."""
    return sum(MAX_DEGREE << (_BITS * i) for i in set(indices))


def exponents(mono: int) -> list[tuple[int, int]]:
    """The ``(variable index, exponent)`` pairs of a monomial with a nonzero
    exponent, by increasing index."""
    return [(i, e) for i, e in enumerate(
        mono.to_bytes((mono.bit_length() + 7) >> 3, "little")) if e]


def _degrees(monos: Iterable[int]) -> list[int]:
    """The total degree of each monomial, in one pass with no Python call
    per monomial.  Since 256 = 1 (mod 255), a monomial is congruent to its
    byte sum, which is its degree, mod 255.  Degrees never exceed 255, so
    only degree 255 reads as 0 besides the unit monomial, and is mended."""
    monos = list(monos)
    degrees = list(map(operator.mod, monos, repeat(MAX_DEGREE)))
    if 0 in degrees:
        degrees = [d or (m and MAX_DEGREE) for m, d in zip(monos, degrees)]
    return degrees


def _rational(value):
    """An exact coefficient: int when integral, Fraction otherwise."""
    if type(value) is int:
        return value
    if type(value) is not Fraction:
        value = Fraction(value)
    return value.numerator if value.denominator == 1 else value


def _clean(terms: Mapping) -> dict:
    """A copy of `terms` without zero coefficients, integral Fractions
    turned to int.  Terms whose coefficients are all nonzero ints, such as
    `det`'s final sum, are copied whole after two scans that run in C."""
    values = terms.values()
    if {int}.issuperset(map(type, values)) and all(values):
        return dict(terms)
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

    def var(self, key: str | VarId) -> VarId:
        """The variable of a name, or a VarId checked to be this registry's
        own: another registry's raises RegistryMismatch, an unknown name
        MissingVariable."""
        if isinstance(key, VarId):
            if self._by_name.get(key.name) != key:
                raise RegistryMismatch(
                    f"variable {key.name!r} belongs to another registry")
            return key
        try:
            return self._by_name[key]
        except KeyError:
            raise MissingVariable(f"unknown variable {key!r}") from None

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
        vid = self.var(name)
        c = _rational(coeff)
        return Polynomial._make(self, {monomial({vid.index: 1}): c} if c else {})


class Polynomial:
    """Immutable sparse polynomial over one variable registry.

    Supports +, -, * (with polynomials or rational scalars), ** with a
    nonnegative integer, exact equality, partial derivatives, and
    substitution of polynomials for variables.
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

    # ------------------------------------------------------------------
    def total_degree(self) -> int:
        if self._degree is None:
            self._degree = max(_degrees(self.terms), default=0)
        return self._degree

    def support_indices(self) -> frozenset[int]:
        """Indices of the variables of self, decoded from one OR of the
        monomials."""
        union = 0
        for m in self.terms:
            union |= m
        return frozenset(i for i, _ in exponents(union))

    def denominator(self) -> int:
        """The lcm of the coefficient denominators: the least positive
        integer whose multiple of self has integer coefficients."""
        return math.lcm(*(c.denominator for c in self.terms.values()
                          if type(c) is not int))

    def coefficient(self, mono: Mapping[str, int]) -> Fraction:
        """Coefficient of the monomial given as {name: exponent}."""
        key = monomial({self.registry.var(n).index: e
                        for n, e in mono.items()})
        return Fraction(self.terms.get(key, 0))

    def partial(self, v) -> "Polynomial":
        vid = self.registry.var(v)
        shift = _BITS * vid.index
        unit = 1 << shift
        out = {}
        for m, c in self.terms.items():
            e = (m >> shift) & MAX_DEGREE
            if e:
                out[m - unit] = c * e
        return self._make(self.registry, _clean(out))

    def substitute(self, images: Mapping) -> "Polynomial":
        """Ring homomorphism sending each variable to its image polynomial.

        All images must share one registry (the target); variables of self
        without an image raise MissingVariable.  Keys are names or VarIds,
        read by `VarRegistry.var`.  With no images the polynomial is
        returned unchanged.

        Coverage and the degree bound are checked on the terms before
        anything is expanded.  The expansion is one multivariate Horner
        loop: every term starts as its coefficient, keyed by its monomial,
        and each round peels the top variable off every remaining monomial,
        multiplies the partial image by that variable's image, and adds it
        into the entry of the shorter monomial; entries that reach the unit
        monomial are the result.  Terms that share a remainder merge before
        it is expanded, and the highest-indexed variables go first, so
        where those have constant images (as the central variables of C_n
        do under a window realisation) each costs one scalar product per
        entry.
        """
        if not images:
            return self
        target: VarRegistry | None = None
        for img in images.values():
            if not isinstance(img, Polynomial):
                raise TypeError("substitution images must be polynomials")
            if target is None:
                target = img.registry
            elif img.registry is not target:
                raise RegistryMismatch(
                    "substitution images span several registries")
        assert target is not None
        imap = {self.registry.var(k).index: img for k, img in images.items()}
        top = 0
        for m in self.terms:
            degree = 0
            for i, e in exponents(m):
                img = imap.get(i)
                if img is None:
                    raise MissingVariable(
                        f"no image for {self.registry.name_of(i)!r}")
                degree += e * img.total_degree()
            top = max(top, degree)
        _check_degree(top, "a substitution")
        left = {m: {0: c} for m, c in self.terms.items()}
        acc = left.pop(0, {})
        while left:
            rest_of: dict[int, dict] = {}
            for m, part in left.items():
                i = (m.bit_length() - 1) // _BITS
                rest = m - (1 << (_BITS * i))
                into = rest_of.setdefault(rest, {}) if rest else acc
                _addmul(into, part, imap[i].terms)
            left = rest_of
        return Polynomial._make(target, _clean(acc))

    # ------------------------------------------------------------------
    def _sorted_monomials(self) -> list[int]:
        """The monomials in canonical order: descending (degree, exponent
        vector).  They are sorted by their little-endian bytes, the dense
        exponent vector, and then stably by degree unless all degrees are
        equal; both keys are computed without a Python call per monomial."""
        monos = sorted(self.terms, reverse=True, key=operator.methodcaller(
            "to_bytes", len(self.registry), "little"))
        degrees = _degrees(monos)
        if min(degrees, default=0) != max(degrees, default=0):
            order = sorted(range(len(monos)), key=degrees.__getitem__,
                           reverse=True)
            monos = list(map(monos.__getitem__, order))
        return monos

    def sorted_terms(self) -> list[tuple[int, Fraction | int]]:
        """Terms in canonical order: descending (degree, exponent vector)."""
        monos = self._sorted_monomials()
        return list(zip(monos, map(self.terms.__getitem__, monos)))

    def _rendered_terms(self, order: list[int], factor):
        """Each term in canonical order as (coefficient, factors), where
        factors concatenates ``factor(name, e)`` over the variables of
        index in `order` that occur.

        One string per (variable, exponent) is made up front for the
        variables that occur.  They are cut, in `order`, into groups of
        `_RENDER_GROUP`, and the factors of each group's part of a monomial
        are memoised, since the same part recurs across many monomials.
        Each group's column of parts is read through its memo, and the
        columns are joined term by term."""
        names = [v.name for v in self.registry.var_ids]
        top = self.total_degree()
        present = self.support_indices()
        order = [i for i in order if i in present]
        monos = self._sorted_monomials()
        columns = []
        for start in range(0, len(order), _RENDER_GROUP):
            idx = order[start:start + _RENDER_GROUP]
            memo = _RenderMemo(
                (_BITS * i, [""] + [factor(names[i], e)
                                    for e in range(1, top + 1)])
                for i in idx)
            columns.append(map(memo.__getitem__, map(
                operator.and_, monos, repeat(variable_mask(idx)))))
        factors = map("".join, zip(*columns)) if columns else repeat("")
        return zip(map(self.terms.__getitem__, monos), factors)

    def text_pieces(self) -> Iterator[str]:
        """The text form in pieces, one per term in canonical order, whose
        join is `text`: ``-a^2`` and then `` + 3*a*b``, `` - b`` and so on."""
        if not self.terms:
            yield "0"
            return
        plus, minus = "", "-"
        # factors by descending variable index, each led by "*"
        for c, factors in self._rendered_terms(
                list(range(len(self.registry) - 1, -1, -1)),
                lambda name, e: f"*{name}" if e == 1 else f"*{name}^{e}"):
            mono = factors[1:]
            mag = abs(c)
            if not mono:
                body = str(mag)
            elif mag == 1:
                body = mono
            else:
                body = f"{mag}*{mono}"
            yield f"{plus}{body}" if c > 0 else f"{minus}{body}"
            plus, minus = " + ", " - "

    def text(self) -> str:
        return "".join(self.text_pieces())

    def __str__(self) -> str:
        return self.text()

    def __repr__(self) -> str:
        return f"Polynomial({self.text()})"

    def to_json(self, write, pad: str = "") -> None:
        """Write the JSON text ``{"terms": [{"coeff", "monomial"}]}`` into
        `write` (a callable taking a ``str``), one piece per term, terms in
        canonical order, exactly as ``json.dumps(indent=2, sort_keys=True)``
        lays it out, with every line after the first led by `pad`.  A
        coefficient is its ``str``, which needs no escaping, and a monomial
        maps each variable name to its exponent, in name order."""
        if not self.terms:
            write(f'{{\n{pad}  "terms": []\n{pad}}}')
            return
        names = [v.name for v in self.registry.var_ids]
        quoted = {name: json.dumps(name) for name in names}
        inner = f"\n{pad}        "
        head = f'{pad}    {{\n{pad}      "coeff": "'
        mid = f'",\n{pad}      "monomial": {{'
        tail = f"\n{pad}      }}\n{pad}    }}"
        bare = f"}}\n{pad}    }}"
        write(f'{{\n{pad}  "terms": [\n')
        sep = ""
        # each exponent entry ends in a comma, the last one dropped here
        for c, entries in self._rendered_terms(
                sorted(range(len(names)), key=names.__getitem__),
                lambda name, e: f"{inner}{quoted[name]}: {e},"):
            write(f"{sep}{head}{c}{mid}{entries[:-1]}{tail}" if entries
                  else f"{sep}{head}{c}{mid}{bare}")
            sep = ",\n"
        write(f"\n{pad}  ]\n{pad}}}")


class _RenderMemo(dict):
    """The rendered factors of one variable group's part of a monomial,
    made on first use from (bit shift, string per exponent) per variable."""

    __slots__ = ("tables",)

    def __init__(self, tables: Iterable[tuple[int, list[str]]]):
        super().__init__()
        self.tables = list(tables)

    def __missing__(self, part: int) -> str:
        rendered = self[part] = "".join(
            [table[(part >> shift) & MAX_DEGREE]
             for shift, table in self.tables])
        return rendered


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


def derive(terms: Mapping[int, Fraction | int], degree: int,
           field: Mapping[int, Mapping[int, Fraction | int]],
           field_degree: int) -> dict:
    """The vector field sum_v a_v d/dv applied to the polynomial with term
    dict `terms`, as a clean term dict, in one pass.

    `field` maps the index of each variable v to the term dict of a_v
    (variables without an entry have a_v = 0).  `degree` and
    `field_degree` bound the total degrees of f and of every a_v, and the
    result's bound degree - 1 + field_degree is checked before anything
    runs.  Each term c*m with exponent e on v adds c*e*k to the monomial
    m / v * u for every term k*u of a_v.

    f is carried times the lcm of its denominators, so with integer a_v
    every product is an integer one and only the final division makes
    Fractions.
    """
    _check_degree(degree - 1 + field_degree, "a derivation")
    den = math.lcm(*(c.denominator for c in terms.values()
                     if type(c) is not int))
    if den != 1:
        terms = {m: c.numerator * (den // c.denominator)
                 for m, c in terms.items()}
    acc: dict = {}
    get = acc.get
    for m, c in terms.items():
        for i, e in exponents(m):
            a = field.get(i)
            if a is None:
                continue
            base = m - (1 << (_BITS * i))
            ce = c * e
            for u, k in a.items():
                key = base + u
                acc[key] = get(key, 0) + ce * k
    if den != 1:
        return {m: _rational(Fraction(c, den)) for m, c in acc.items() if c}
    return _clean(acc)


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
# Determinants


def _minor(entries: list, end: int, memo: dict, colmask: int) -> dict:
    """The minor on the columns in `colmask` and the last |colmask| of the
    rows before `end`, expanded along its first row and memoised per column
    subset in `memo`; zero coefficients may remain."""
    cached = memo.get(colmask)
    if cached is not None:
        return cached
    row = entries[end - bin(colmask).count("1")]
    acc: dict = {}
    negate = 0
    mask = colmask
    while mask:
        low = mask & -mask
        entry = row[low.bit_length() - 1][negate]
        if entry:
            _addmul(acc, entry, _minor(entries, end, memo, colmask ^ low))
        negate ^= 1
        mask ^= low
    memo[colmask] = acc
    return acc


def det(rows: Sequence[Sequence[Polynomial]]) -> Polynomial:
    """Determinant of a square matrix given as its rows of polynomials from
    one registry, by Laplace's expansion in complementary minors along the
    top k = size // 2 rows (Gantmacher, The Theory of Matrices, vol. 1,
    ch. I): the sum over k-subsets S of the columns of (-1)^(sum S -
    k(k-1)/2) det M[top, S] det M[bottom, S^c].  Zero coefficients are
    dropped once, from the whole determinant, since a zero left in a minor
    only costs products.  An empty, ragged or non-square matrix raises
    ValueError, and entries from more than one registry RegistryMismatch."""
    size = len(rows)
    if not size or any(len(row) != size for row in rows):
        raise ValueError("determinant of an empty or non-square matrix")
    registry = rows[0][0].registry
    if any(e.registry is not registry for row in rows for e in row):
        raise RegistryMismatch("matrix entries mix registries")
    # every term of the determinant takes one entry from each row
    _check_degree(sum(max(e.total_degree() for e in row) for row in rows),
                  "a determinant")
    # entries[row][col] = (terms, negated terms)
    entries = [[(e.terms, (-e).terms) for e in row] for row in rows]
    k, full = size // 2, (1 << size) - 1
    # `_minor` is no closure, so the memos hold no cycle and every minor is
    # freed when det returns
    top: dict[int, dict] = {0: {0: 1}}
    bottom: dict[int, dict] = {0: {0: 1}}
    acc: dict = {}
    for cols in combinations(range(size), k):
        colmask = sum(1 << c for c in cols)
        upper = _minor(entries, k, top, colmask)
        if upper:
            if (sum(cols) - k * (k - 1) // 2) & 1:
                upper = {m: -c for m, c in upper.items()}
            _addmul(acc, upper, _minor(entries, size, bottom, full ^ colmask))
    return Polynomial._make(registry, _clean(acc))


# ----------------------------------------------------------------------
# Rational linear algebra


def _eliminate(r: dict[int, Fraction], c: int,
               row: Mapping[int, Fraction]) -> None:
    """Subtract r[c] times `row` (which is 1 at column c) from the sparse
    row r in place, dropping the zeros this makes."""
    f = r.pop(c)
    for cc, vv in row.items():
        if cc != c:
            nv = r.get(cc, _ZERO) - f * vv
            if nv:
                r[cc] = nv
            else:
                r.pop(cc, None)


def _echelon(rows: Iterable[Mapping[int, Fraction | int]]
             ) -> dict[int, dict[int, Fraction]]:
    """Fully reduced echelon form of a system given as sparse rows
    {col: coeff}: each pivot column maps to its row, which is 1 at the
    pivot, 0 at every other pivot column, and nonzero only at columns from
    the pivot on.  Row order and redundant rows do not change the result."""
    pivot_rows: dict[int, dict[int, Fraction]] = {}
    for raw in rows:
        r = {c: Fraction(v) for c, v in raw.items() if v}
        # pivot rows are fully reduced, so subtracting one never brings in
        # or cancels another pivot column: one pass clears them all
        for c in [c for c in r if c in pivot_rows]:
            _eliminate(r, c, pivot_rows[c])
        if not r:
            continue
        c = min(r)
        inv = Fraction(1) / r[c]
        row = {cc: vv * inv for cc, vv in r.items()}
        # keep earlier pivot rows fully reduced
        for pr in pivot_rows.values():
            if c in pr:
                _eliminate(pr, c, row)
        pivot_rows[c] = row
    return pivot_rows


def rank_rational(rows: Iterable[Mapping[int, Fraction | int]]) -> int:
    """Exact rank of a rational system given as sparse rows {col: coeff}."""
    return len(_echelon(rows))


def sparse_nullspace(rows: Iterable[Mapping[int, Fraction | int]],
                     ncols: int) -> list[dict[int, Fraction]]:
    """Nullspace basis for a system given as sparse rows {col: coeff} over
    columns 0..ncols-1, in the reduced-echelon parametrisation: one sparse
    vector {col: coeff} per free column, by increasing free column, each 1
    at its free column, 0 at the other free columns and nonzero only at
    columns up to its own.  Keys are in increasing column order, so the
    free column is the last."""
    pivot_rows = _echelon(rows)
    pivots = sorted(pivot_rows.items())
    basis: list[dict[int, Fraction]] = []
    for f in range(ncols):
        if f not in pivot_rows:
            v = {p: -pr[f] for p, pr in pivots if f in pr}
            v[f] = Fraction(1)
            basis.append(v)
    return basis
