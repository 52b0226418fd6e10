"""Core types for categorized allocation domains.

A domain has ``p`` categories holding ``n`` items each; item identifiers are
local to their category (category ``i`` holds items ``1..n``). A bundle takes
one item from every category, so the bundle space has ``n**p`` elements.
Agents hold strict total orders over the full bundle space, and an allocation
gives every agent one bundle such that every category's items are exactly
partitioned among the ``n`` agents.

Ranks are 1-based: rank 1 is an agent's most preferred bundle, rank ``n**p``
her least preferred. A ``Preference`` holds its ranking as a tuple of bundle
indices and builds its bundle order, rank table and position masks on first
use, each one entry (or bit) per bundle; the ``CAPACITY_LIMIT`` guard bounds
their size.

Internally a bundle is also known by its mixed-radix index (``encode_bundle``):
each shape has one canonical bundle table (``bundle_table``) and one lookup
from bundle to index. Every ``Preference`` is built from bundle indices
(``Preference.from_indices``; the public constructor maps bundles to indices
first, and ``Preference._from_rows`` checks a sampler's block of index rows
at once), so the samplers work on integers and the engine on bitsets over
ranking positions. Whichever way a ranking comes in, one list-order loop
(``_check_indices``) names the first problem of one that fails its check.
Position masks are filled from a block of index rows, one numpy pass per
category for many preferences.
"""

from __future__ import annotations

import itertools
import reprlib
import weakref
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

Bundle = tuple[int, ...]

# Largest bundle space a shape may have: every ranking, bundle table and rank
# table holds one entry per bundle, and a bundle index stays below 2**32.
CAPACITY_LIMIT = 10**6


class ValidationError(ValueError):
    """An input value violates a structural invariant."""


class CapacityError(RuntimeError):
    """A requested computation exceeds a configured capacity or budget."""


def _exceeds(limit: int, factors: Iterable[int]) -> bool:
    """Whether the product of ``factors`` (each at least 1) is over ``limit``.

    The running product is compared before every multiplication, so the
    guard stops as soon as it passes the limit and never forms a number
    much larger than it: counts such as ``(n**p)!`` stay unevaluated.
    """
    total = 1
    for factor in factors:
        if total > limit:
            return True
        total *= factor
    return total > limit


class _BoundedRepr(reprlib.Repr):
    """Reprs of caller input in error messages: one level deep, a few
    entries per container, and ints through the generic fallback, which also
    prints one past ``str``'s digit limit. A tuple quoted whole is how the
    package holds a bundle, a pair or a sequence it was given, so its entries
    show one level deeper, as they were given."""

    def repr(self, x) -> str:
        return self.repr1(x, self.maxlevel + (type(x) is tuple))


_REPR = _BoundedRepr()
_REPR.maxlevel, _REPR.repr_int = 1, _REPR.repr_instance


def _check_seed(seed) -> None:
    """Reject a seed ``np.random.default_rng`` would refuse, and bools."""
    if not (type(seed) is int and seed >= 0):
        raise ValidationError(f"seed must be a non-negative integer, got {seed!r}")


def _check_permutation(seq: Sequence, n: int, what: str = "") -> None:
    """Reject ``seq`` unless it lists the plain ints 1..n once each."""
    if not all(type(x) is int for x in seq) or sorted(seq) != list(range(1, n + 1)):
        raise ValidationError(f"{what}{_REPR.repr(seq)} is not a permutation of 1..{n}")


# The live shapes by plain-int ``(n, p)``, each registered once validated;
# an entry goes when nothing (a per-shape cache included) holds its shape.
_SHAPES: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


@dataclass(frozen=True, eq=False)
class DomainShape:
    """Domain dimensions: ``n`` agents (and items per category), ``p`` categories.

    There is one live instance per valid ``(n, p)``: the constructor returns
    the registered shape, and pickling or copying gives it back, so shapes
    compare and hash by identity."""

    n: int
    p: int

    def __new__(cls, n: int, p: int) -> DomainShape:
        # only plain ints name a registered shape: True and 2.0 hash like 1 and 2
        shape = _SHAPES.get((n, p)) if type(n) is int and type(p) is int else None
        return shape if shape is not None else super().__new__(cls)

    def __post_init__(self) -> None:
        if not (type(self.n) is int and type(self.p) is int):
            raise ValidationError(f"shape dimensions must be integers, got {self.n!r}, {self.p!r}")
        if _SHAPES.get((self.n, self.p)) is self:
            return  # validated when first built
        if self.n < 1 or self.p < 1:
            raise ValidationError(f"shape ({self.n}, {self.p}) invalid: need n >= 1 and p >= 1")
        # each category costs a round and a bundle component even when n == 1
        # spans one bundle; past this check, n >= 2 runs at most ~20 factors
        if self.p > CAPACITY_LIMIT:
            raise CapacityError(f"{self.p} categories exceed the capacity limit {CAPACITY_LIMIT}")
        if self.n > 1 and _exceeds(CAPACITY_LIMIT, itertools.repeat(self.n, self.p)):
            raise CapacityError(
                f"bundle space {self.n}**{self.p} exceeds the capacity limit {CAPACITY_LIMIT}"
            )
        _SHAPES[self.n, self.p] = self

    def __reduce__(self):
        return DomainShape, (self.n, self.p)

    @property
    def bundle_count(self) -> int:
        return self.n**self.p

    def agents(self) -> range:
        return range(1, self.n + 1)

    def categories(self) -> range:
        return range(1, self.p + 1)

    def bundles(self) -> Iterator[Bundle]:
        """All bundles in ascending bundle-index order."""
        return itertools.product(range(1, self.n + 1), repeat=self.p)

    def validate_bundle(self, bundle: Sequence[int]) -> Bundle:
        b = tuple(bundle)
        if len(b) != self.p:
            raise ValidationError(
                f"bundle {_REPR.repr(b)} has {len(b)} components, expected {self.p}"
            )
        for item in b:
            if not (type(item) is int and 1 <= item <= self.n):
                raise ValidationError(
                    f"bundle {_REPR.repr(b)} holds item {_REPR.repr(item)} outside 1..{self.n}"
                )
        return b


def encode_bundle(shape: DomainShape, bundle: Sequence[int]) -> int:
    """Mixed-radix index of a bundle, 0-based: (1,..,1) -> 0, (n,..,n) -> n**p - 1."""
    b = shape.validate_bundle(bundle)
    idx = 0
    for item in b:
        idx = idx * shape.n + (item - 1)
    return idx


@lru_cache(maxsize=8)
def bundle_table(shape: DomainShape) -> tuple[Bundle, ...]:
    """Every bundle of ``shape`` in bundle-index order: one shared tuple per
    bundle, so ``bundle_table(shape)[i]`` decodes index ``i`` without
    building anything."""
    return tuple(shape.bundles())


@lru_cache(maxsize=8)
def _bundle_lookup(shape: DomainShape) -> dict[Bundle, int]:
    return {b: i for i, b in enumerate(bundle_table(shape))}


@lru_cache(maxsize=8)
def _item_bits(shape: DomainShape) -> tuple[int, ...]:
    """One int per bundle index: bit ``c * n + d - 1`` is set when the bundle
    holds item ``d`` of category ``c + 1``, so two bundles share an item
    exactly when their bits meet."""
    n = shape.n
    return tuple(
        sum(1 << (c * n + d - 1) for c, d in enumerate(bundle)) for bundle in bundle_table(shape)
    )


def decode_bundle(shape: DomainShape, index: int) -> Bundle:
    if not (type(index) is int and 0 <= index < shape.bundle_count):
        raise ValidationError(f"bundle index {index!r} outside 0..{shape.bundle_count - 1}")
    comps = []
    for _ in range(shape.p):
        comps.append(index % shape.n + 1)
        index //= shape.n
    return tuple(reversed(comps))


def _bundle_index(
    shape: DomainShape, lookup: Mapping[Bundle, int], table: Sequence[Bundle], bundle
) -> int:
    """Index of ``bundle`` through the shape's lookup dict. A miss, an
    unhashable bundle, or a hit that is neither the canonical tuple nor all
    plain ints (``1.0``, ``True`` and ``np.int64(1)`` hash like ``1``) goes
    through ``encode_bundle``, which accepts it or names the problem."""
    try:
        idx = lookup.get(bundle)
    except TypeError:
        idx = None
    if idx is not None and bundle is not table[idx]:
        for item in bundle:
            if type(item) is not int:
                idx = None
                break
    if idx is None:
        idx = encode_bundle(shape, bundle)
    return idx


def _check_indices(shape: DomainShape, indices: Iterable) -> tuple[int, ...]:
    """The bundle indices ``indices`` lists, as a tuple, if they are a
    permutation of the shape's; else the first problem, in list order: an
    entry that is not an index, then a repeat, and otherwise the length."""
    count = shape.bundle_count
    seen = bytearray(count)
    listed = []
    for idx in indices:
        if not (type(idx) is int and 0 <= idx < count):
            raise ValidationError(f"bundle index {idx!r} outside 0..{count - 1}")
        if seen[idx]:
            raise ValidationError(f"bundle {bundle_table(shape)[idx]} appears twice in preference")
        seen[idx] = 1
        listed.append(idx)
    if len(listed) != count:
        raise ValidationError(f"preference lists {len(listed)} bundles, expected all {count}")
    return tuple(listed)


class Preference:
    """A strict total order over the full bundle space of a shape.

    ``indices[0]`` is the bundle index of the most preferred bundle and
    ``order[0]`` that bundle, one of the shape's canonical tuples
    (``bundle_table``). Construction validates that the ranking is a
    permutation of the whole bundle space; the bundle order, the rank table
    and the position masks are built on first use. Bundles are decoded and
    looked up through the shape's shared table and lookup, not per instance.
    """

    __slots__ = ("shape", "indices", "_order", "_rank", "_masks")

    def __init__(self, shape: DomainShape, order: Iterable[Sequence[int]]):
        try:
            seq = tuple(map(tuple, order))
        except TypeError as exc:
            raise ValidationError(f"preference must list bundles of items: {exc}") from None
        if len(seq) != shape.bundle_count:
            raise ValidationError(
                f"preference lists {len(seq)} bundles, expected all {shape.bundle_count}"
            )
        lookup, table = _bundle_lookup(shape), bundle_table(shape)
        # each bundle is mapped as the check reaches it, so a bundle's own
        # error and a repeat are met in list order
        listed = map(partial(_bundle_index, shape, lookup, table), seq)
        self._build(shape, _check_indices(shape, listed))

    @classmethod
    def from_indices(cls, shape: DomainShape, indices: Iterable[int]) -> Preference:
        """The preference listing bundle ``indices`` (``encode_bundle``), most
        preferred first; they must name each of ``0..n**p - 1`` once.

        The whole sequence is checked at once (its length, that every entry
        is a plain ``int``, and that the entries cover every index); only
        when that fails does ``_check_indices`` loop to name the first
        offender."""
        seq = tuple(indices)
        count = shape.bundle_count
        # with count plain ints covering range(count), each index appears once
        if not (
            len(seq) == count
            and set(map(type, seq)) == {int}
            and set(seq).issuperset(range(count))
        ):
            seq = _check_indices(shape, seq)
        return cls.__new__(cls)._build(shape, seq)

    @classmethod
    def _from_rows(cls, shape: DomainShape, rows: np.ndarray) -> list[Preference]:
        """One preference per row of a block of bundle indices, checked as a
        whole: a 2-D unsigned block, ``n**p`` wide, each row of which sorts
        to ``0..n**p - 1`` (one sort of the block, compared with one range
        of its dtype). A block that fails goes row by row through
        ``from_indices``, which names the first offender."""
        if not (
            rows.ndim == 2
            and rows.shape[1] == shape.bundle_count
            and rows.dtype.kind == "u"
            and (np.sort(rows, axis=1) == np.arange(rows.shape[1], dtype=rows.dtype)).all()
        ):
            return [cls.from_indices(shape, row) for row in rows.tolist()]
        return [cls.__new__(cls)._build(shape, tuple(row)) for row in rows.tolist()]

    def _build(self, shape: DomainShape, indices: tuple[int, ...]) -> Preference:
        """The one build path, from a checked permutation of the bundle
        indices; everything derived from it is built on first use. Returns
        the preference."""
        self.shape = shape
        self.indices = indices
        self._order = None
        self._rank = None
        self._masks = None
        return self

    @property
    def order(self) -> tuple[Bundle, ...]:
        """The ranking as bundles, most preferred first, built on first use."""
        if self._order is None:
            self._order = tuple(map(bundle_table(self.shape).__getitem__, self.indices))
        return self._order

    @property
    def position_masks(self) -> tuple[tuple[int, ...], ...]:
        """Where each item sits in the ranking, as bitsets: bit ``r`` of
        ``position_masks[c][d - 1]`` is set when ``order[r]`` holds item ``d``
        in category ``c + 1``. Built on first use (``build_position_masks``)."""
        if self._masks is None:
            build_position_masks([self])
        return self._masks

    def rank_of(self, bundle: Sequence[int]) -> int:
        """Rank of ``bundle``, 1-based. The rank table is built on first use:
        the engine and the Mallows study read positions, not ranks."""
        if self._rank is None:
            rank = [0] * len(self.indices)
            for pos, idx in enumerate(self.indices, 1):
                rank[idx] = pos
            self._rank = rank
        shape = self.shape
        return self._rank[_bundle_index(shape, _bundle_lookup(shape), bundle_table(shape), bundle)]

    def bundle_at(self, rank: int) -> Bundle:
        if not (type(rank) is int and 1 <= rank <= len(self.indices)):
            raise ValidationError(f"rank {rank!r} outside 1..{len(self.indices)}")
        return bundle_table(self.shape)[self.indices[rank - 1]]

    def top(self) -> Bundle:
        return bundle_table(self.shape)[self.indices[0]]

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Preference)
            and self.shape == other.shape
            and self.indices == other.indices
        )

    def __hash__(self) -> int:
        return hash((self.shape, self.indices))

    def __repr__(self) -> str:
        head = " > ".join("".join(map(str, b)) for b in self.order[:3])
        return f"Preference({self.shape.n}x{self.shape.p}: {head} > ...)"


# Largest one-hot block ``_fill_masks`` forms at once, in elements.
_MASK_BLOCK = 1 << 22


@lru_cache(maxsize=8)
def _digit_matrix(shape: DomainShape) -> np.ndarray:
    """Row ``c`` holds category ``c + 1``'s item of every bundle index,
    0-based (the mixed-radix digits), in the narrowest unsigned type."""
    index = np.arange(shape.bundle_count)
    digits = np.empty((shape.p, shape.bundle_count), np.min_scalar_type(shape.n - 1))
    for c, row in enumerate(digits):
        row[:] = index // shape.n ** (shape.p - 1 - c) % shape.n
    return digits


def build_position_masks(prefs: Sequence[Preference]) -> None:
    """Fill ``position_masks`` of every preference in ``prefs`` (all of one
    shape) that lacks them, from one block of their bundle indices
    (``_fill_masks``)."""
    todo = [pref for pref in prefs if pref._masks is None]
    if todo:
        m = todo[0].shape.bundle_count
        flat = itertools.chain.from_iterable(pref.indices for pref in todo)
        _fill_masks(todo, np.fromiter(flat, np.intp, len(todo) * m).reshape(len(todo), m))


def _fill_masks(prefs: Sequence[Preference], index: np.ndarray) -> None:
    """Set ``position_masks`` of every preference in ``prefs`` (all of one
    shape) from ``index``, whose row ``a`` lists ``prefs[a].indices``: one
    numpy pass per category, in blocks of preferences when their one-hot
    rows would pass ``_MASK_BLOCK`` elements."""
    shape = prefs[0].shape
    n = shape.n
    digits = _digit_matrix(shape)
    items = np.arange(n, dtype=digits.dtype)[:, None]
    step = max(1, _MASK_BLOCK // (n * shape.bundle_count))
    for lo in range(0, len(prefs), step):
        block = prefs[lo : lo + step]
        # numpy gathers with a native index several times faster than a uintc one
        rows = index[lo : lo + step].astype(np.intp, copy=False)
        by_pref: list[list[tuple[int, ...]]] = [[] for _ in block]
        for row in digits:
            # one-hot rows per (preference, item), packed to bytes, bit r first
            packed = np.packbits(row[rows][:, None, :] == items, axis=2, bitorder="little")
            width = packed.shape[2]
            data = packed.tobytes()
            masks = [
                int.from_bytes(data[s : s + width], "little")
                for s in range(0, len(data), width)
            ]
            for a, out in enumerate(by_pref):
                out.append(tuple(masks[a * n : (a + 1) * n]))
        for pref, out in zip(block, by_pref):
            pref._masks = tuple(out)


class Profile:
    """One preference per agent, agents indexed 1..n."""

    __slots__ = ("shape", "preferences")

    def __init__(self, shape: DomainShape, preferences: Sequence[Preference]):
        prefs = tuple(preferences)
        if len(prefs) != shape.n:
            raise ValidationError(f"profile holds {len(prefs)} preferences, expected {shape.n}")
        for j, pref in enumerate(prefs, 1):
            if pref.shape is not shape:
                raise ValidationError(f"agent {j} preference shaped {pref.shape}, expected {shape}")
        self.shape = shape
        self.preferences = prefs

    def pref(self, agent: int) -> Preference:
        if not (type(agent) is int and 1 <= agent <= self.shape.n):
            raise ValidationError(f"agent {agent!r} outside 1..{self.shape.n}")
        return self.preferences[agent - 1]

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Profile)
            and self.shape == other.shape
            and self.preferences == other.preferences
        )

    def __hash__(self) -> int:
        return hash((self.shape, self.preferences))


@dataclass(frozen=True)
class Allocation:
    """Bundle per agent. Not validated at construction; see validate_allocation."""

    bundles: Mapping[int, Bundle]

    def __getitem__(self, agent: int) -> Bundle:
        return self.bundles[agent]

    def items(self):
        return self.bundles.items()


@dataclass(frozen=True)
class AllocationCheck:
    ok: bool
    detail: str = ""
    category: int | None = None
    item: int | None = None


def validate_allocation(shape: DomainShape, allocation: Allocation) -> AllocationCheck:
    """Check that every category's items are exactly partitioned among agents.

    Returns a report rather than raising, so callers can surface the first
    offending (category, item) pair. A well-formed allocation is accepted in
    one pass: each agent's bundle, a shape tuple or a tuple of plain ints,
    ORs its item bits (``_item_bits``) into a running mask that they must
    not meet. Only when that pass fails does the full check run, to name the
    first offender. Both take plain ints only, as ``rank_of`` does: a bool
    or numpy integer item makes the bundle malformed.
    """
    bundles = allocation.bundles
    lookup, table, bits = _bundle_lookup(shape), bundle_table(shape), _item_bits(shape)
    taken = 0
    try:
        for j in shape.agents():
            b = bundles[j]
            idx = lookup[b]
            if taken & bits[idx] or (b is not table[idx] and not all(type(x) is int for x in b)):
                break
            taken |= bits[idx]
        else:
            if len(bundles) == shape.n:
                return AllocationCheck(True)
    except (KeyError, TypeError):
        pass  # a missing agent, or a bundle the lookup does not hold
    if bundles.keys() != set(shape.agents()):
        return AllocationCheck(False, f"agents {sorted(bundles)} do not match 1..{shape.n}")
    n = shape.n
    rows = list(map(bundles.__getitem__, shape.agents()))
    for j, b in enumerate(rows, 1):
        if len(b) != shape.p or not all(type(x) is int and 1 <= x <= n for x in b):
            return AllocationCheck(False, f"agent {j} holds malformed bundle {_REPR.repr(b)}")
    for i, items in enumerate(zip(*rows), 1):
        if len(set(items)) == n:
            continue
        # a repeat: name the first agent to hold an item already seen
        seen: dict[int, int] = {}
        for j, item in enumerate(items, 1):
            if item in seen:
                return AllocationCheck(
                    False,
                    f"item {item} of category {i} assigned to agents {seen[item]} and {j}",
                    category=i,
                    item=item,
                )
            seen[item] = j
    return AllocationCheck(True)


def _require_valid(profile: Profile, allocation: Allocation) -> None:
    check = validate_allocation(profile.shape, allocation)
    if not check.ok:
        raise ValidationError(f"invalid allocation: {check.detail}")


def utilitarian_rank(profile: Profile, allocation: Allocation) -> int:
    """Sum of realized ranks over agents (lower is better)."""
    _require_valid(profile, allocation)
    return sum(profile.pref(j).rank_of(allocation[j]) for j in profile.shape.agents())


def egalitarian_rank(profile: Profile, allocation: Allocation) -> int:
    """Worst realized rank over agents (lower is better)."""
    _require_valid(profile, allocation)
    return max(profile.pref(j).rank_of(allocation[j]) for j in profile.shape.agents())


# JSON wire format helpers. Profiles: {"n":3,"p":2,"preferences":[[[1,2],...],...]}
# (agent order, most preferred first). Allocations: {"bundles":{"1":[1,2],...}}.


def _shape_from_json(data: Mapping) -> DomainShape:
    try:
        n, p = data["n"], data["p"]
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"missing shape field: {exc}") from None
    return DomainShape(n, p)


def profile_to_json(profile: Profile) -> dict:
    return {
        "n": profile.shape.n,
        "p": profile.shape.p,
        "preferences": [[list(b) for b in pref.order] for pref in profile.preferences],
    }


def profile_from_json(data: Mapping) -> Profile:
    shape = _shape_from_json(data)
    prefs_raw = data.get("preferences")
    if not isinstance(prefs_raw, list) or len(prefs_raw) != shape.n:
        raise ValidationError(f"profile needs a 'preferences' list of length {shape.n}")
    prefs = []
    for j, raw in enumerate(prefs_raw, 1):
        try:
            prefs.append(Preference(shape, raw))
        except ValidationError as exc:
            raise ValidationError(f"agent {j}: {exc}") from None
    return Profile(shape, prefs)


def allocation_to_json(allocation: Allocation) -> dict:
    return {"bundles": {str(j): list(b) for j, b in sorted(allocation.bundles.items())}}


def allocation_from_json(shape: DomainShape, data: Mapping) -> Allocation:
    """The allocation a document lists. An agent key is a plain int or the
    string ``str`` writes for one (``"01"``, ``" 2 "`` and ``"1_0"`` are
    refused), and no agent is listed twice."""
    raw = data.get("bundles") if isinstance(data, Mapping) else None
    if not isinstance(raw, Mapping):
        raise ValidationError("allocation needs a 'bundles' mapping")
    bundles = {}
    for key, value in raw.items():
        try:
            agent = int(key) if type(key) in (int, str) else None
        except ValueError:
            agent = None
        if agent is None or str(agent) != str(key):
            raise ValidationError(f"agent key {_REPR.repr(key)} is not an integer")
        if agent in bundles:
            raise ValidationError(f"allocation lists agent {agent} twice")
        bundles[agent] = shape.validate_bundle(value)
    return Allocation(bundles)
