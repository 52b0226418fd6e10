"""Shared instances and oracles reused across test modules.

The 3x2 instance and its mixed-behavior order exercise every interesting
code path at desk scale: an interrupted suborder for agents 1 and 2, a
pessimistic agent with slack 2 in both categories, and a profile whose
serial-dictatorship outcome differs from the mixed-order outcome.
"""

import itertools
import math

import numpy as np
import pytest

import catdom as cd
from catdom import MallowsParams, Preference, ValidationError
from catdom.mallows import _place, _slots


def pref_of(shape, rows):
    """Build a Preference from compact digit strings like "12"."""
    return cd.Preference(shape, [tuple(int(ch) for ch in row) for row in rows])


def profile_of(shape, rows_by_agent):
    prefs = [pref_of(shape, rows_by_agent[j]) for j in shape.agents()]
    return cd.Profile(shape, prefs)


# The Mallows model's exact distance and probability: the oracle that the
# sampler's draws are compared against.
def kendall_tau(first: Preference, second: Preference) -> int:
    """Number of bundle pairs the two rankings order oppositely."""
    if first.shape != second.shape:
        raise ValidationError("rankings live on different shapes")
    pos = {idx: i for i, idx in enumerate(second.indices)}
    return _count_inversions([pos[idx] for idx in first.indices])


def _count_inversions(seq: list[int]) -> int:
    if len(seq) < 2:
        return 0
    mid = len(seq) // 2
    left, right = seq[:mid], seq[mid:]
    count = _count_inversions(left) + _count_inversions(right)
    merged = []
    i = j = 0
    while i < len(left) and j < len(right):
        if left[i] <= right[j]:
            merged.append(left[i])
            i += 1
        else:
            merged.append(right[j])
            j += 1
            count += len(left) - i
    seq[:] = merged + left[i:] + right[j:]
    return count


def mallows_pmf(params: MallowsParams, ranking: Preference) -> float:
    """Exact probability of one ranking; the normalizer has the closed form
    prod_k (1 + phi + ... + phi**(k-1)), each factor (phi**k - 1) / (phi - 1)
    formed with ``expm1`` as in ``_slots`` (k at phi = 1)."""
    m = params.reference.shape.bundle_count
    log_phi = math.log(params.phi)
    z = math.prod(
        math.expm1(k * log_phi) / math.expm1(log_phi) if log_phi else float(k)
        for k in range(1, m + 1)
    )
    return params.phi ** kendall_tau(ranking, params.reference) / z


def batched_draw(reference, phi, count, rng):
    """``count`` independent repeated-insertion draws around the bundle
    indices ``reference``, from one ``rng.random((count, m))`` (row by row
    the same numbers as ``count`` calls of ``rng.random(m)``), as a
    ``(count, m)`` unsigned block, one draw per row: the sampler's slot and
    placement steps on a block of draws around one reference. A
    ``sample_mallows`` draw is the single row of ``count = 1``, and each
    replicate's rows in the study's block are the ``count = n`` rows on the
    replicate's stream after its reference."""
    x = rng.random((count, len(reference)))
    _slots(x, phi)
    return _place(x, itertools.repeat(reference, count))


def position_masks_oracle(pref):
    """Per-preference numpy build of ``position_masks``: the item digits
    peeled off the bundle indices one category at a time, last category
    first, each item's one-hot row packed to bytes, bit r first."""
    n = pref.shape.n
    index = np.array(pref.indices)
    items = np.arange(n)[:, None]
    by_category = []
    for _ in range(pref.shape.p):
        packed = np.packbits(index % n == items, axis=1, bitorder="little")
        index //= n
        by_category.append(tuple(int.from_bytes(row.tobytes(), "little") for row in packed))
    return tuple(reversed(by_category))


def profile_views(profiles):
    """A block of profiles, each a sequence of n checked preferences, in
    the layout ``engine._views`` gives, built per preference from
    ``position_masks_oracle``, with tuples for containers:
    ``masks[c][b][a]`` holds agent ``a + 1``'s masks of the items of
    category ``c + 1`` in profile ``b``, and ``indices[a][b]`` her ranking
    there. The oracle of the views ``run_csam`` and the Mallows study
    build; compare them through ``views_by_value``."""
    oracles = [[position_masks_oracle(pref) for pref in prefs] for prefs in profiles]
    masks = [
        tuple(tuple(by_agent[c] for by_agent in profile) for profile in oracles)
        for c in range(len(oracles[0][0]))
    ]
    indices = list(zip(*((pref.indices for pref in prefs) for prefs in profiles)))
    return masks, indices


def views_by_value(views):
    """``engine._views`` output with each container a tuple and each ranking
    a tuple of its entries, the form ``profile_views`` gives."""
    masks, indices = views
    by_value = [tuple(map(tuple, rows)) for rows in masks]
    return by_value, [tuple(map(tuple, rankings)) for rankings in indices]


SHAPE_3X2 = cd.DomainShape(3, 2)

PROFILE_3X2_ROWS = {
    1: ["12", "21", "32", "33", "31", "22", "23", "13", "11"],
    2: ["32", "12", "21", "13", "33", "11", "31", "23", "22"],
    3: ["13", "12", "11", "22", "32", "21", "33", "31", "23"],
}

MIXED_ORDER_3X2_ROUNDS = ((1, 1), (2, 2), (3, 1), (3, 2), (2, 1), (1, 2))
MIXED_BEHAVIORS_3X2 = (cd.OPTIMISTIC, cd.OPTIMISTIC, cd.PESSIMISTIC)

SHAPE_2X2 = cd.DomainShape(2, 2)

GAME_PROFILE_2X2_ROWS = {
    1: ["22", "12", "11", "21"],
    2: ["12", "11", "22", "21"],
}
GAME_ORDER_2X2_ROUNDS = ((1, 1), (2, 2), (2, 1), (1, 2))

WELFARE_PROFILE_2X2_ROWS = {
    1: ["11", "12", "22", "21"],
    2: ["12", "21", "11", "22"],
}


@pytest.fixture
def profile_3x2():
    return profile_of(SHAPE_3X2, PROFILE_3X2_ROWS)


@pytest.fixture
def mixed_order_3x2():
    return cd.PickingOrder(SHAPE_3X2, MIXED_ORDER_3X2_ROUNDS)


@pytest.fixture
def game_profile_2x2():
    return profile_of(SHAPE_2X2, GAME_PROFILE_2X2_ROWS)


@pytest.fixture
def game_order_2x2():
    return cd.PickingOrder(SHAPE_2X2, GAME_ORDER_2X2_ROUNDS)


@pytest.fixture
def welfare_profile_2x2():
    return profile_of(SHAPE_2X2, WELFARE_PROFILE_2X2_ROWS)
