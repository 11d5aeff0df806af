"""Registry-driven no-false-dismissal properties for every lower bound.

The cascade is exact only because every bound it prunes with satisfies
``bound(S, Q) <= D_tw(S, Q)``.  ``KNOWN_BOUNDS`` names each lower bound
in the library and this suite proves that property for each of them:

* ``lb_yi`` / ``lb_yi_from_features`` — Yi et al.'s max/min bound,
* ``lb_kim`` — the cascade tier name of the paper's Definition-3
  4-feature bound, implemented by ``dtw_lb`` and friends,
* ``lb_keogh`` / ``lb_keogh_batch`` — the envelope bound of
  band-constrained DTW,
* ``dtw_lb`` / ``dtw_lb_features`` / ``dtw_lb_batch`` /
  ``dtw_lb_pairwise`` — the Definition-3 bound in its scalar, feature,
  batched, and pairwise forms.

``KNOWN_BOUNDS`` is checked against the live package: every public
``lb_*`` / ``dtw_lb*`` function and every ``TIER_*`` constant found by
importing each ``repro`` module must be in it, so a new bound cannot
ship without a property test here.  Every cascade tier must also be
evaluated by both :meth:`FilterCascade.run` and
:meth:`FilterCascade.run_many`, prune on data built to be prunable, and
keep the answers exact.

Every bound and ``dtw_max`` is a maximum of element differences, so the
comparisons below are exact: no floating-point slack is allowed.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
import repro.core.cascade as cascade_module
from repro.core.cascade import (
    DEFAULT_TIERS,
    TIER_KEOGH,
    TIER_KIM,
    TIER_YI,
    FeatureStore,
    FilterCascade,
)
from repro.core.features import extract_feature, feature_array
from repro.core.lower_bound import (
    dtw_lb,
    dtw_lb_batch,
    dtw_lb_features,
    dtw_lb_pairwise,
)
from repro.distance.bands import sakoe_chiba_window
from repro.distance.dtw import dtw_max, dtw_max_matrix
from repro.distance.lb_keogh import lb_keogh, lb_keogh_batch, warping_envelope
from repro.distance.lb_yi import lb_yi, lb_yi_from_features

elements = st.floats(
    min_value=-50, max_value=50, allow_nan=False, allow_infinity=False
)
sequence_strategy = st.lists(elements, min_size=1, max_size=12)
database_strategy = st.lists(sequence_strategy, min_size=1, max_size=8)
length_strategy = st.integers(min_value=1, max_value=12)
radius_strategy = st.integers(min_value=0, max_value=4)

#: Bound name -> the callable it certifies.  Must equal the set of
#: bounds the package defines; drift either way fails the suite.
KNOWN_BOUNDS: dict[str, object] = {
    "lb_yi": lb_yi,
    "lb_yi_from_features": lb_yi_from_features,
    "lb_kim": dtw_lb,  # the Definition-3 bound behind the lb_kim tier
    "lb_keogh": lb_keogh,
    "lb_keogh_batch": lb_keogh_batch,
    "dtw_lb": dtw_lb,
    "dtw_lb_features": dtw_lb_features,
    "dtw_lb_batch": dtw_lb_batch,
    "dtw_lb_pairwise": dtw_lb_pairwise,
}

_BOUND_NAME_RE = re.compile(r"^(lb_|dtw_lb)")
_TIER_NAME_RE = re.compile(r"^TIER_[A-Z0-9_]+$")


def _tier_constants(module: object) -> dict[str, str]:
    """``TIER_*`` name -> tier string, for every such module constant."""
    return {
        name: value
        for name, value in vars(module).items()
        if _TIER_NAME_RE.match(name) and isinstance(value, str)
    }


def _defined_bounds() -> dict[str, str]:
    """Every bound the package defines -> the module that defines it.

    Imports each ``repro`` module and collects its public ``lb_*`` /
    ``dtw_lb*`` functions plus the values of its ``TIER_*`` constants.
    """
    found: dict[str, str] = {}
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.rsplit(".", 1)[-1] == "__main__":
            continue  # importing it would run the CLI
        module = importlib.import_module(info.name)
        for name, value in vars(module).items():
            if _BOUND_NAME_RE.match(name) and inspect.isfunction(value):
                found.setdefault(name, info.name)
        for tier in _tier_constants(module).values():
            found.setdefault(tier, info.name)
    return found


class TestRegistryIntegrity:
    def test_every_entry_names_a_known_bound(self) -> None:
        """New bounds and stale entries both fail loudly here."""
        defined = _defined_bounds()
        unproven = {n: m for n, m in defined.items() if n not in KNOWN_BOUNDS}
        assert not unproven, f"bounds without a property test: {unproven}"
        assert set(KNOWN_BOUNDS) == set(defined)

    def test_cascade_tiers_are_registered(self) -> None:
        """Every tier the default cascade prunes with is certified."""
        assert set(DEFAULT_TIERS) == {TIER_YI, TIER_KIM, TIER_KEOGH}
        for tier in _tier_constants(cascade_module).values():
            assert tier in KNOWN_BOUNDS


def _prunable_workload() -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Equal-length random walks, with queries taken near three of them.

    The walks drift apart, so every tier finds rows whose bound exceeds
    the tolerance used below.
    """
    rng = np.random.default_rng(11)
    data = [rng.normal(size=16).cumsum() for _ in range(40)]
    queries = [data[i] + rng.normal(scale=0.05, size=16) for i in (3, 17, 29)]
    return data, queries


@pytest.mark.parametrize(
    "tier", sorted(_tier_constants(cascade_module).values())
)
def test_every_tier_is_evaluated_and_prunes(tier: str) -> None:
    """A tier the cascade declares must run, prune, and stay exact.

    The full-width band (radius = sequence length) activates the
    envelope tier while keeping banded DTW equal to plain ``dtw_max``.
    """
    data, queries = _prunable_workload()
    epsilon = 1.0
    radius = len(data[0])
    cascade = FilterCascade(FeatureStore(data), tiers=(tier,))
    single = [cascade.run(q, epsilon, band_radius=radius) for q in queries]
    batched = cascade.run_many(queries, epsilon, band_radius=radius)
    for query, one, many in zip(queries, single, batched):
        expected = [
            i for i, values in enumerate(data) if dtw_max(values, query) <= epsilon
        ]
        for outcome in (one, many):
            stage = outcome.stats.stage(tier)
            assert stage.n_in > 0
            assert stage.pruned >= 1
            assert outcome.answer_ids == expected


class TestYiBounds:
    @given(sequence_strategy, sequence_strategy)
    @settings(deadline=None)
    def test_lb_yi_never_exceeds_dtw(self, s, q) -> None:
        assert lb_yi(s, q) <= dtw_max(s, q)

    @given(database_strategy, sequence_strategy)
    @settings(deadline=None)
    def test_lb_yi_from_features_never_exceeds_dtw(self, sequences, q) -> None:
        features = feature_array(sequences)
        bounds = lb_yi_from_features(features, extract_feature(q))
        for row, values in enumerate(sequences):
            assert bounds[row] <= dtw_max(values, q)


class TestKimDefinition3Bounds:
    """The 4-feature bound behind the lb_kim cascade tier."""

    @given(sequence_strategy, sequence_strategy)
    @settings(deadline=None)
    def test_dtw_lb_never_exceeds_dtw(self, s, q) -> None:
        assert dtw_lb(s, q) <= dtw_max(s, q)

    @given(sequence_strategy, sequence_strategy)
    @settings(deadline=None)
    def test_dtw_lb_features_matches_dtw_lb(self, s, q) -> None:
        via_features = dtw_lb_features(extract_feature(s), extract_feature(q))
        assert via_features == dtw_lb(s, q)

    @given(database_strategy, sequence_strategy)
    @settings(deadline=None)
    def test_dtw_lb_batch_never_exceeds_dtw(self, sequences, q) -> None:
        bounds = dtw_lb_batch(feature_array(sequences), extract_feature(q))
        for row, values in enumerate(sequences):
            assert bounds[row] <= dtw_max(values, q)
            assert bounds[row] == dtw_lb(values, q)

    @given(database_strategy, database_strategy)
    @settings(deadline=None)
    def test_dtw_lb_pairwise_never_exceeds_dtw(self, left, right) -> None:
        matrix = dtw_lb_pairwise(feature_array(left), feature_array(right))
        for i, s in enumerate(left):
            for j, q in enumerate(right):
                assert matrix[i, j] <= dtw_max(s, q)
                assert matrix[i, j] == dtw_lb(s, q)


def _banded_dtw(s, q, radius: int) -> float:
    window = sakoe_chiba_window(len(s), len(q), radius)
    return dtw_max_matrix(s, q, window=window).distance


class TestKeoghBounds:
    @given(length_strategy, st.data(), radius_strategy)
    @settings(deadline=None)
    def test_lb_keogh_never_exceeds_banded_dtw(self, n, data, radius) -> None:
        row = st.lists(elements, min_size=n, max_size=n)
        s = data.draw(row)
        q = data.draw(row)
        assert lb_keogh(s, q, radius=radius) <= _banded_dtw(s, q, radius)

    @given(length_strategy, st.data(), radius_strategy)
    @settings(deadline=None)
    def test_lb_keogh_batch_never_exceeds_banded_dtw(
        self, n, data, radius
    ) -> None:
        row = st.lists(elements, min_size=n, max_size=n)
        rows = data.draw(st.lists(row, min_size=1, max_size=6))
        q = data.draw(row)
        upper, lower = warping_envelope(q, radius)
        bounds = lb_keogh_batch(np.asarray(rows, dtype=np.float64), upper, lower)
        for i, s in enumerate(rows):
            assert bounds[i] <= _banded_dtw(s, q, radius)
            assert bounds[i] == lb_keogh(s, q, radius=radius)
