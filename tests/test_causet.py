"""Causal sets, layers, the box operator, and the action."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from causetbox import causet
from causetbox.causet import (
    ActionReport,
    CausalSet,
    gravitational_action,
    box_operator,
    from_relations,
    interval_abundances,
    interval_size,
    layer,
    layer_sums,
    load_causal_set,
)
from causetbox.coefficients import FeasibilityError


def chain(n):
    return from_relations(n, [(k, k + 1) for k in range(n - 1)])


def diamond():
    return from_relations(4, [(0, 1), (0, 2), (1, 3), (2, 3)])


@st.composite
def random_causal_sets(draw):
    n = draw(st.integers(min_value=1, max_value=12))
    pairs = []
    for a in range(n):
        for b in range(a + 1, n):
            if draw(st.booleans()):
                pairs.append((a, b))
    return from_relations(n, pairs)


# Plain-loop references: the per-pair and per-predecessor loops the
# matrix-product kernel replaced, kept as the oracle it must match exactly.


def reference_closure(matrix):
    closure = matrix.copy()
    while True:
        two_step = (closure.astype(np.int32) @ closure.astype(np.int32)) > 0
        extended = closure | two_step
        if (extended == closure).all():
            return closure
        closure = extended


def reference_layer(causal_set, x, i):
    predecessors = np.flatnonzero(causal_set.precedes[:, x])
    return frozenset(
        int(y) for y in predecessors if interval_size(causal_set, int(y), x) == i + 1
    )


def reference_layer_sums(causal_set, x, field, max_layer):
    sums = np.zeros(max_layer)
    to_x = causal_set.precedes[:, x]
    for y in np.flatnonzero(to_x):
        between = np.count_nonzero(causal_set.precedes[y] & to_x)
        if between < max_layer:
            sums[between] += field[y]
    return sums


def reference_abundances(causal_set, max_i):
    counts = [0] * max_i
    for a, b in zip(*np.nonzero(causal_set.precedes)):
        i = interval_size(causal_set, int(a), int(b)) - 1
        if i <= max_i:
            counts[i - 1] += 1
    return tuple(counts)


def links(causal_set):
    """The covering pairs: related pairs with nothing between them."""
    n = causal_set.size
    return [
        (a, b)
        for a in range(n)
        for b in range(n)
        if causal_set.precedes[a, b] and interval_size(causal_set, a, b) == 2
    ]


class TestMatchesReferenceLoops:
    @given(random_causal_sets(), st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_exact_equality(self, causal_set, seed):
        n = causal_set.size
        covering = links(causal_set)
        generated = np.zeros((n, n), dtype=bool)
        for a, b in covering:
            generated[a, b] = True
        assert (reference_closure(generated) == causal_set.precedes).all()
        assert (from_relations(n, covering).precedes == causal_set.precedes).all()
        field = np.random.default_rng(seed).normal(size=n)
        for x in range(n):
            for i in range(1, n + 2):
                assert layer(causal_set, x, i) == reference_layer(causal_set, x, i)
            for max_layer in (0, 1, 3, n + 1):
                got = layer_sums(causal_set, x, field, max_layer)
                want = reference_layer_sums(causal_set, x, field, max_layer)
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes()
        for max_i in (1, 3, n + 1):
            assert interval_abundances(causal_set, max_i) == reference_abundances(
                causal_set, max_i
            )

    def test_layer_sums_stay_float_on_an_empty_past(self):
        sums = layer_sums(chain(3), 0, np.arange(3), 3)
        assert sums.dtype == np.float64 and sums.tolist() == [0.0, 0.0, 0.0]


class TestBlockedIntervalPass:
    """The interval pass in blocks of a few rows equals the reference loops."""

    @given(random_causal_sets(), st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_several_blocks_match_reference_loops(self, causal_set, seed):
        n = causal_set.size
        order = causal_set.precedes
        covering = links(causal_set)
        generated = np.zeros((n, n), dtype=bool)
        for a, b in covering:
            generated[a, b] = True
        implied = np.argwhere(order & ~generated)  # pairs with something between
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(causet, "_BLOCK_ROWS", 3)  # n <= 12: up to four blocks
            closed = from_relations(n, covering)
            validated = CausalSet(order.copy())
            if len(implied):
                broken = order.copy()
                broken[tuple(implied[seed % len(implied)])] = False
                with pytest.raises(ValueError, match="transitively closed"):
                    CausalSet(broken)
        assert (closed.precedes == reference_closure(generated)).all()
        for built in (closed, validated):
            for max_i in (1, 3, n + 1):
                assert interval_abundances(built, max_i) == reference_abundances(
                    built, max_i
                )

    def test_one_pass_per_closed_build_and_none_for_abundances(self, monkeypatch):
        calls = []
        interval_pass = causet._interval_pass
        pairs = np.argwhere(diamond().precedes)  # closed: every related pair

        def counted(order):
            calls.append(order.shape)
            return interval_pass(order)

        monkeypatch.setattr(causet, "_interval_pass", counted)
        full = from_relations(4, pairs)
        assert calls == [(4, 4)]
        validated = CausalSet(full.precedes)
        assert calls == [(4, 4)] * 2
        for built in (full, validated):
            assert interval_abundances(built, 3) == (4, 0, 1)
            assert gravitational_action(built, 2, 1.0).abundances == (4, 0, 1)
        assert len(calls) == 2

    def test_budget_bounds_the_measured_peak(self, monkeypatch):
        # a chain relates every later element: the densest blocks, the
        # most block temporaries; the caller's matrix is counted too
        n = 300
        monkeypatch.setattr(causet, "_BLOCK_ROWS", 64)
        monkeypatch.setattr(causet, "MAX_ARRAY_BYTES", 6 * n * n + 16 * 64 * n)
        order = np.triu(np.ones((n, n), dtype=bool), 1)
        tracemalloc.start()
        try:
            CausalSet(order)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert n * n + peak <= causet.MAX_ARRAY_BYTES
        with pytest.raises(FeasibilityError, match="301 elements"):
            from_relations(n + 1, [])

    def test_budget_admits_18248_elements(self):
        causet._check_pass_budget(18_248)
        with pytest.raises(FeasibilityError, match="18249 elements"):
            causet._check_pass_budget(18_249)

    def test_histogram_is_read_only(self):
        with pytest.raises(ValueError):
            diamond()._histogram[0] = 7


class TestConstruction:
    def test_closure_is_applied(self):
        causal_set = chain(3)
        assert causal_set.precedes[0, 2]

    def test_diamond_closure(self):
        assert diamond().precedes[0, 3]

    def test_cycle_rejected(self):
        with pytest.raises(ValueError):
            from_relations(2, [(0, 1), (1, 0)])
        with pytest.raises(ValueError):
            from_relations(3, [(0, 1), (1, 2), (2, 0)])

    @pytest.mark.parametrize(
        "pairs", [[(0, 0)], [(0, 1), (1, 0)], [(0, 1), (1, 2), (2, 0)]]
    )
    def test_cycle_message_names_the_cycle(self, pairs):
        with pytest.raises(ValueError, match="cycle"):
            from_relations(3, pairs)

    def test_numpy_integer_pairs_accepted(self):
        pairs = np.argwhere(diamond().precedes)
        assert (from_relations(np.int64(4), pairs).precedes == diamond().precedes).all()

    @pytest.mark.parametrize(
        "payload",
        [
            {"n": "3", "relations": [[0, 1]]},
            {"n": 2.5, "relations": [[0, 1]]},
            {"n": True, "relations": []},
            {"n": 3, "relations": [[0.0, 1]]},
            {"n": 3, "relations": [[False, 1]]},
            {"n": 3, "relations": [[True, 0]]},
            {"n": 3, "relations": [["0", 1]]},
            {"n": 3, "relations": [[None, 1]]},
            {"n": 3, "relations": [[0]]},
            {"n": 3, "relations": [[0, 1, 2]]},
            {"n": 3, "relations": [5]},
            {"n": 3, "relations": 5},
            {"n": 3, "relations": [[10**30, 1]]},
            {"n": 3, "relations": [[0, -1]]},
            ["n", "relations"],
        ],
    )
    def test_malformed_input_rejected(self, payload):
        with pytest.raises(ValueError):
            load_causal_set(payload)
        if isinstance(payload, dict):
            with pytest.raises(ValueError):
                from_relations(payload["n"], payload["relations"])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            from_relations(2, [(0, 5)])

    def test_non_closed_matrix_rejected(self):
        matrix = np.zeros((3, 3), dtype=bool)
        matrix[0, 1] = matrix[1, 2] = True  # missing (0, 2)
        with pytest.raises(ValueError):
            CausalSet(precedes=matrix)

    def test_equality_and_hash_are_by_identity(self):
        first, second = from_relations(3, [(0, 1)]), from_relations(3, [(0, 1)])
        assert first == first and first != second
        assert hash(first) == hash(first)
        assert len({first, second, first}) == 2

    def test_load_from_dict_and_file(self, tmp_path):
        payload = {"n": 3, "relations": [[0, 1], [1, 2]]}
        assert load_causal_set(payload).precedes[0, 2]
        path = tmp_path / "c.json"
        path.write_text('{"n": 3, "relations": [[0, 1], [1, 2]]}')
        assert load_causal_set(path).precedes[0, 2]
        with pytest.raises(ValueError):
            load_causal_set({"relations": []})


class TestIntervalsAndLayers:
    def test_interval_sizes(self):
        causal_set = chain(3)
        assert interval_size(causal_set, 0, 2) == 3
        assert interval_size(causal_set, 1, 1) == 1
        assert interval_size(causal_set, 2, 0) == 0
        assert interval_size(diamond(), 0, 3) == 4

    def test_chain_layers(self):
        causal_set = chain(3)
        assert layer(causal_set, 2, 1) == {1}
        assert layer(causal_set, 2, 2) == {0}
        assert layer(causal_set, 2, 3) == frozenset()

    def test_diamond_layers(self):
        causal_set = diamond()
        assert layer(causal_set, 3, 1) == {1, 2}
        assert layer(causal_set, 3, 2) == frozenset()
        assert layer(causal_set, 3, 3) == {0}

    def test_antichain_layers_empty(self):
        causal_set = from_relations(4, [])
        assert all(layer(causal_set, x, i) == frozenset() for x in range(4) for i in (1, 2, 3))

    @given(random_causal_sets())
    @settings(max_examples=40, deadline=None)
    def test_layers_partition_the_past(self, causal_set):
        n = causal_set.size
        for x in range(n):
            past = {y for y in range(n) if causal_set.precedes[y, x]}
            layered = set()
            for i in range(1, n + 1):
                current = layer(causal_set, x, i)
                assert current <= past
                assert not current & layered
                layered |= current
            assert layered == past

    @given(random_causal_sets())
    @settings(max_examples=40, deadline=None)
    def test_related_intervals_have_size_at_least_two(self, causal_set):
        n = causal_set.size
        for a in range(n):
            for b in range(n):
                if causal_set.precedes[a, b]:
                    assert interval_size(causal_set, a, b) >= 2


class TestBoxOperator:
    def test_chain_hand_value(self):
        value = box_operator(chain(3), 2, 1.0, np.ones(3), 2)
        assert value == pytest.approx(-6.0, abs=1e-12)

    def test_zero_field(self):
        assert box_operator(diamond(), 2, 1.0, np.zeros(4), 3) == 0.0

    def test_single_element(self):
        value = box_operator(from_relations(1, []), 2, 1.0, [1.0], 0)
        assert value == pytest.approx(-2.0, abs=1e-12)

    def test_length_scale_prefactor(self):
        base = box_operator(chain(3), 2, 1.0, np.ones(3), 2)
        halved = box_operator(chain(3), 2, 2.0, np.ones(3), 2)
        assert halved == pytest.approx(base / 4)

    @given(random_causal_sets(), st.integers(min_value=0, max_value=11))
    @settings(max_examples=25, deadline=None)
    def test_linearity(self, causal_set, x_raw):
        x = x_raw % causal_set.size
        rng = np.random.default_rng(0)
        phi = rng.normal(size=causal_set.size)
        psi = rng.normal(size=causal_set.size)
        lhs = box_operator(causal_set, 2, 1.0, 2.0 * phi - 3.0 * psi, x)
        rhs = 2.0 * box_operator(causal_set, 2, 1.0, phi, x) - 3.0 * box_operator(
            causal_set, 2, 1.0, psi, x
        )
        assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_rejects_bad_field_or_scale(self):
        with pytest.raises(ValueError):
            box_operator(chain(3), 2, 1.0, np.ones(2), 0)
        for ell in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="positive and finite"):
                box_operator(chain(3), 2, ell, np.ones(3), 0)
            with pytest.raises(ValueError, match="positive and finite"):
                gravitational_action(chain(3), 2, ell)

    def test_overflowing_length_power_names_scale_and_dimension(self):
        with pytest.raises(ValueError, match="length scale 1e\\+160 to the power 2 .* dimension 2"):
            box_operator(chain(3), 2, 1e160, np.ones(3), 2)
        with pytest.raises(ValueError, match="to the power 2 .* dimension 4"):
            gravitational_action(chain(3), 4, 1e300)


class TestAbundancesAndAction:
    def test_antichain(self):
        causal_set = from_relations(6, [])
        assert interval_abundances(causal_set, 3) == (0, 0, 0)
        assert gravitational_action(causal_set, 2, 1.0).action == pytest.approx(12.0)

    def test_chain(self):
        assert interval_abundances(chain(3), 3) == (2, 1, 0)
        assert gravitational_action(chain(3), 2, 1.0).action == pytest.approx(6.0)

    def test_diamond(self):
        assert interval_abundances(diamond(), 3) == (4, 0, 1)
        assert gravitational_action(diamond(), 2, 1.0).action == pytest.approx(-12.0)

    def test_empty(self):
        report = gravitational_action(from_relations(0, []), 2, 1.0)
        assert report.action == 0.0 and report.size == 0

    def test_report_roundtrip(self):
        report = gravitational_action(diamond(), 4, 0.5)
        assert ActionReport.from_dict(report.to_dict()) == report

    @given(random_causal_sets(), st.sampled_from([2, 4]))
    @settings(max_examples=30, deadline=None)
    def test_action_matches_operator_sum(self, causal_set, d):
        ell = 0.7
        report = gravitational_action(causal_set, d, ell)
        ones = np.ones(causal_set.size)
        total = sum(
            box_operator(causal_set, d, ell, ones, x) for x in range(causal_set.size)
        )
        expected = -(ell ** (d - 2)) * ell**2 * total
        assert report.action == pytest.approx(expected, rel=1e-10, abs=1e-12)
