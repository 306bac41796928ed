"""Causal sets, layers, the box operator, and the action."""

import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from causetbox import causet
from causetbox.causet import (
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
from causetbox.sprinkling import DiamondConfig, causal_matrix, sprinkle


def chain(n):
    return from_relations(n, [(k, k + 1) for k in range(n - 1)])


def diamond():
    return from_relations(4, [(0, 1), (0, 2), (1, 3), (2, 3)])


def load_json(tmp_path, payload):
    """``load_causal_set`` on ``payload`` written to a JSON file."""
    path = tmp_path / "causet.json"
    path.write_text(json.dumps(payload))
    return load_causal_set(path)


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


def reference_interval_pass(order):
    """One Jacobi pass of ``B = P @ P``, the interval pass the sweep replaced:
    adds one closure step to ``order`` in place and returns whether it
    added a pair, with the histogram of ``B`` over the related pairs."""
    n_elements = order.shape[0]
    causet._check_pass_budget(n_elements)
    operand = order.astype(np.float32)
    histogram = np.zeros(n_elements + 1, dtype=np.int64)  # a cycle can reach N
    grew = False
    for start in range(0, n_elements, causet._BLOCK_ROWS):
        rows = order[start : start + causet._BLOCK_ROWS]  # a view: the update writes through
        between = operand[start : start + causet._BLOCK_ROWS] @ operand
        histogram += np.bincount(between[rows].astype(np.int64), minlength=n_elements + 1)
        added = (between > 0) & ~rows
        if added.any():
            grew = True
            rows |= added
    return grew, histogram


def reference_closing_pass(order):
    """Jacobi passes until one adds nothing, as ``from_relations`` ran them;
    the result has the interval pass's ``(grew, histogram)`` form."""
    grew, (added, histogram) = False, reference_interval_pass(order)
    while added:
        grew, (added, histogram) = True, reference_interval_pass(order)
    return grew, histogram


def reference_pass_count(n, pairs):
    """How many Jacobi passes ``from_relations`` ran on ``pairs``."""
    generated = np.zeros((n, n), dtype=bool)
    generated[tuple(np.transpose(pairs))] = True
    passes = 1
    while reference_interval_pass(generated)[0]:
        passes += 1
    return passes


@pytest.fixture
def products(monkeypatch):
    """The shapes of the interval pass's products, in the order taken."""
    shapes, extend = [], causet._extend

    def counted(rows, products):
        shapes.append(products.shape)
        return extend(rows, products)

    monkeypatch.setattr(causet, "_extend", counted)
    return shapes


def outcome(build):
    """What a build gives: the order, histogram and abundances, or the
    type and message of the exception it raised."""
    try:
        built = build()
    except Exception as exc:
        return type(exc), str(exc)
    abundances = interval_abundances(built, built.size + 1)
    return built.precedes.tobytes(), built._histogram.tolist(), abundances


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

    def test_one_pass_per_build_and_none_per_read(self, monkeypatch):
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
        assert calls == [(4, 4)] * 2  # validation: one pass, which takes the histogram
        for built in (full, validated):
            for _ in range(2):  # every read is a lookup
                assert interval_abundances(built, 3) == (4, 0, 1)
                assert gravitational_action(built, 2, 1.0).abundances == (4, 0, 1)
                assert calls == [(4, 4)] * 2

    def test_bad_coords_are_refused_before_the_pass(self, monkeypatch):
        calls = []
        monkeypatch.setattr(causet, "_interval_pass", lambda *args: calls.append(args))
        order = np.triu(np.ones((5, 5), dtype=bool), 1)
        for coords in (np.zeros((4, 2)), np.zeros(5), np.zeros((5, 2, 1))):
            with pytest.raises(ValueError, match="one row per element"):
                CausalSet(order, coords=coords)
        assert calls == []

    def test_budget_bounds_the_measured_peak(self, monkeypatch):
        # a chain relates every later element: the densest blocks, the
        # most block temporaries; the caller's matrix is counted too.
        # Built from its links, every block grows and closes itself.
        n = 300
        monkeypatch.setattr(causet, "_BLOCK_ROWS", 64)
        monkeypatch.setattr(causet, "MAX_ARRAY_BYTES", 6 * n * n + 16 * 64 * n)
        order = np.triu(np.ones((n, n), dtype=bool), 1)
        chain_links = [(k, k + 1) for k in range(n - 1)]
        tracemalloc.start()
        try:
            validated = CausalSet(order)  # the pass and its histogram
            peak = tracemalloc.get_traced_memory()[1]
            held = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            interval_abundances(validated, 1)  # a lookup
            read_peak = tracemalloc.get_traced_memory()[1] - held
            del validated
            tracemalloc.reset_peak()
            grown = from_relations(n, chain_links)
            grown_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (grown.precedes == order).all()
        assert n * n + peak <= causet.MAX_ARRAY_BYTES
        assert read_peak < n * n  # no N x N array
        assert grown_peak <= causet.MAX_ARRAY_BYTES
        with pytest.raises(FeasibilityError, match="301 elements"):
            from_relations(n + 1, [])

    def test_an_order_over_the_budget_is_refused_before_its_copy(self, monkeypatch):
        n = 1000
        monkeypatch.setattr(
            causet, "MAX_ARRAY_BYTES", 6 * n * n + 16 * causet._BLOCK_ROWS * n - 1
        )
        order = np.triu(np.ones((n, n), dtype=bool), 1)
        tracemalloc.start()
        try:
            with pytest.raises(FeasibilityError, match="1000 elements"):
                CausalSet(order)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * n  # neither a copy nor ``order & order.T``

    def test_budget_admits_18248_elements(self):
        causet._check_pass_budget(18_248)
        with pytest.raises(FeasibilityError, match="18249 elements"):
            causet._check_pass_budget(18_249)

    def test_histogram_is_read_only(self):
        with pytest.raises(ValueError):
            diamond()._histogram[0] = 7


@st.composite
def generating_sets(draw):
    """A random relation on up to 40 elements: an upper-triangular draw,
    kept as drawn (a forward order) or with one backward pair (a cycle if
    its ends are related), or under a random relabelling, with or without
    one back-edge."""
    n = draw(st.integers(min_value=1, max_value=40))
    density = draw(st.sampled_from([0.02, 0.08, 0.3, 0.9]))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    relabel = rng.permutation(n)
    generated = np.triu(rng.random((n, n)) < density, 1)
    labels = draw(st.sampled_from(["forward", "one backward pair", "relabelled"]))
    if labels == "one backward pair" and n > 1:
        low, high = sorted(rng.choice(n, size=2, replace=False))
        generated[high, low] = True
    if labels == "relabelled":
        generated = generated[np.ix_(relabel, relabel)]
        related = np.argwhere(reference_closure(generated))
        if len(related) and draw(st.booleans()):  # a back-edge closes a cycle
            a, b = related[draw(st.integers(min_value=0, max_value=len(related) - 1))]
            generated[b, a] = True
    return generated


@st.composite
def sprinkled_links(draw):
    """The links of an order sprinkled into a box, 400 to 700 elements in
    three or four blocks, labelled in time order or relabelled."""
    n = draw(st.integers(min_value=400, max_value=700))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    coords = rng.uniform(-1.0, 1.0, size=(n, draw(st.sampled_from([2, 3, 4]))))
    order = causal_matrix(coords[np.argsort(coords[:, 0])])
    as_float = order.astype(np.float32)
    links = order & (as_float @ as_float == 0)
    if draw(st.booleans()):
        relabel = rng.permutation(n)
        links = links[np.ix_(relabel, relabel)]
    return links


class TestSweepMatchesJacobiPasses:
    """The sweep gives what repeated Jacobi passes gave, in fewer products."""

    @given(sprinkled_links())
    @settings(max_examples=8, deadline=None)
    def test_large_link_lists_match_the_reference_passes(self, links):
        n = len(links)
        closed = links.copy()
        histogram = reference_closing_pass(closed)[1].tolist()
        built = from_relations(n, np.argwhere(links).tolist())
        validated = CausalSet(closed)
        assert (built.precedes == closed).all()
        for causal_set in (built, validated):
            assert causal_set._histogram.tolist() == histogram
        if (links != closed).any():
            with pytest.raises(ValueError, match="transitively closed"):
                CausalSet(links)

    @given(generating_sets(), st.sampled_from([3, 7, 16, 512]))
    @settings(max_examples=240, deadline=None)
    def test_same_outcome_as_the_reference_passes(self, generated, block):
        n = generated.shape[0]
        pairs = np.argwhere(generated).tolist()
        closed = reference_closure(generated)
        builds = (
            lambda: from_relations(n, pairs),
            lambda: CausalSet(generated),
            lambda: CausalSet(closed),
        )
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(causet, "_BLOCK_ROWS", block)
            got = [outcome(build) for build in builds]
            patch.setattr(causet, "_interval_pass", reference_closing_pass)
            want = [outcome(build) for build in builds]
        assert got == want

    @pytest.mark.parametrize("kind", ["chain", "diamond"])
    def test_natural_labels_close_in_one_sweep(self, kind, monkeypatch):
        if kind == "chain":
            n, pairs = 400, [(k, k + 1) for k in range(399)]
        else:  # a sprinkle is labelled in time order
            config = DiamondConfig(dimension=2, density=300.0, half_height=1.0, seed=3)
            order = sprinkle(config).causal_set.precedes
            as_float = order.astype(np.float64)
            n, pairs = order.shape[0], np.argwhere(order & (as_float @ as_float == 0))
        sizes, passes, sweep, interval_pass = [], [], causet._sweep, causet._interval_pass

        def counted_sweep(*args):
            sizes.append(args[2])
            return sweep(*args)

        def counted_pass(order):
            passes.append(order.shape)
            return interval_pass(order)

        monkeypatch.setattr(causet, "_sweep", counted_sweep)
        monkeypatch.setattr(causet, "_interval_pass", counted_pass)
        built = from_relations(n, pairs)
        assert passes == [(n, n)] and len(sizes) == 2  # the closing and the confirming sweep
        assert n > 2 * sizes[0]  # three blocks or more
        CausalSet(built.precedes)
        assert len(sizes) == 3  # a closed order takes one sweep
        generated = np.zeros((n, n), dtype=bool)
        generated[tuple(np.transpose(pairs))] = True
        histogram = reference_closing_pass(generated)[1]
        assert (built.precedes == generated).all()
        assert built._histogram.tolist() == histogram.tolist()


    @pytest.mark.parametrize("relabel", [False, True])
    def test_one_block_takes_the_products_of_the_passes(self, relabel, products):
        n = 200  # up to N = 256 the order is one block: its squares are the passes
        labels = np.random.default_rng(5).permutation(n) if relabel else np.arange(n)
        pairs = [(labels[k], labels[k + 1]) for k in range(n - 1)]
        passes = reference_pass_count(n, pairs)
        from_relations(n, np.array(pairs).tolist())
        assert [rows for rows, _ in products] == [n] * passes and passes == 9

    def test_relabelled_blocks_take_one_product_per_sweep(self, products, monkeypatch):
        n, sweeps, sweep = 400, [], causet._sweep  # three blocks
        labels = np.random.default_rng(5).permutation(n)
        pairs = np.array([(labels[k], labels[k + 1]) for k in range(n - 1)]).tolist()

        def counted_sweep(*args):
            sweeps.append(args[2])
            return sweep(*args)

        monkeypatch.setattr(causet, "_sweep", counted_sweep)
        from_relations(n, pairs)  # a block that squared itself would take more products
        assert len(products) == 3 * len(sweeps) <= 3 * reference_pass_count(n, pairs)

    @pytest.mark.parametrize("labels", ["time order", "relabelled", "one pair swapped"])
    def test_a_forward_order_alone_starts_its_products_at_its_first_columns(
        self, labels, monkeypatch
    ):
        n, products, scans = 400, [], []  # three blocks
        relabel = {
            "time order": np.arange(n),
            "relabelled": np.random.default_rng(5).permutation(n),
            "one pair swapped": np.r_[0, 2, 1, 3:n],  # 1 < 2 becomes 2 < 1
        }[labels]
        generated = np.eye(n, k=1, dtype=bool)[np.ix_(relabel, relabel)]  # a chain's links
        first = np.array([np.flatnonzero(row)[0] if row.any() else n for row in generated])
        order, extend, first_columns = generated.copy(), causet._extend, causet._first_columns

        def counted(rows, between):  # where the rows view starts in the order
            offset = rows.__array_interface__["data"][0] - order.__array_interface__["data"][0]
            products.append((*divmod(offset, n), *rows.shape, between.shape))
            return extend(rows, between)

        def scanned(rows):
            scans.append(rows.shape)
            return first_columns(rows)

        monkeypatch.setattr(causet, "_extend", counted)
        monkeypatch.setattr(causet, "_first_columns", scanned)
        causet._interval_pass(order)
        assert (order == reference_closure(generated)).all() and scans == [(n, n)]
        if labels == "time order":  # each growing block squares itself
            squares = [(row, height, width) for row, column, height, width, _ in products
                       if column == row]
            assert squares and all(width == height for _, height, width in squares)
            for row, column, height, width, shape in products:
                if column != row:
                    assert column == first[row : row + height].min()
                    assert width == shape[1] == n - column
        else:  # whole rows, one step per block
            assert {(column, width) for _, column, _, width, _ in products} == {(0, n)}

    @pytest.mark.parametrize("kind", ["unclosed", "cyclic"])
    @pytest.mark.parametrize("n", [5, 400])  # one block, and three
    def test_validation_refuses_a_pair_it_would_add(self, kind, n):
        # validation closes a private copy: the caller's matrix is left as given
        order = np.triu(np.ones((n, n), dtype=bool), 1)
        if kind == "unclosed":
            order[0, n - 1] = False  # implied through 1
        else:  # the links of a chain and one back-edge: no a < a, no a < b < a
            order = np.eye(n, k=1, dtype=bool)
            order[n - 1, 0] = True
        given = order.copy()
        with pytest.raises(ValueError, match="^relation must be transitively closed$"):
            CausalSet(order)
        assert order.tobytes() == given.tobytes() and order.flags.writeable


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
    def test_malformed_input_rejected(self, payload, tmp_path):
        with pytest.raises(ValueError):
            load_json(tmp_path, payload)
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

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text('{"n": 3, "relations": [[0, 1], [1, 2]]}')
        assert load_causal_set(path).precedes[0, 2]
        assert load_causal_set(str(path)).precedes[0, 2]
        with pytest.raises(ValueError):
            load_json(tmp_path, {"relations": []})


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


class TestRelationParsing:
    """Each malformed relation keeps its exception type and message."""

    PAIR = "each relation must be a pair [a, b]"

    @pytest.mark.parametrize(
        "relations, message",
        [
            ([[0]], PAIR),
            ([[0, 1, 2]], PAIR),
            ([[0, 1], [2]], PAIR),
            ([5], PAIR),
            (7, PAIR),
            (["ab"], "each relation end must be an integer, not str"),
            ([[True, 1]], "each relation end must be an integer, not bool"),
            ([[0, 1.0]], "each relation end must be an integer, not float"),
            ([[0, 10**30]], f"relation (0, {10**30}) out of range 0..2"),
            ([[0, 1], [-1, 2]], "relation (-1, 2) out of range 0..2"),
        ],
    )
    def test_message_is_pinned(self, relations, message, tmp_path):
        with pytest.raises(ValueError) as raised:
            from_relations(3, relations)
        assert type(raised.value) is ValueError and str(raised.value) == message
        with pytest.raises(ValueError) as raised:
            load_json(tmp_path, {"n": 3, "relations": relations})
        assert str(raised.value) == message

    @pytest.mark.parametrize(
        "make",
        [
            lambda pairs: pairs,
            lambda pairs: (tuple(pair) for pair in pairs),
            lambda pairs: np.array(pairs, dtype=np.int64).reshape(-1, 2),
            lambda pairs: np.array(pairs, dtype=np.int32).reshape(-1, 2),
        ],
    )
    @pytest.mark.parametrize("pairs", [[], [[0, 1], [1, 3], [0, 2]]])
    def test_valid_forms_give_one_closure(self, make, pairs):
        want = reference_closure(_scattered(4, pairs))
        assert (from_relations(4, make(pairs)).precedes == want).all()


def _scattered(n, pairs):
    matrix = np.zeros((n, n), dtype=bool)
    for a, b in pairs:
        matrix[a, b] = True
    return matrix


class TestElementIndices:
    CALLS = {
        "interval_size": lambda cs, x: interval_size(cs, x, 2),
        "interval_size_b": lambda cs, x: interval_size(cs, 0, x),
        "layer": lambda cs, x: layer(cs, x, 1),
        "layer_sums": lambda cs, x: layer_sums(cs, x, np.ones(3), 2).tolist(),
        "box_operator": lambda cs, x: box_operator(cs, 2, 1.0, np.ones(3), x),
    }

    @pytest.mark.parametrize("call", CALLS)
    @pytest.mark.parametrize(
        "x, message",
        [
            (-1, "element index must be in 0..2, got -1"),
            (3, "element index must be in 0..2, got 3"),
            (5, "element index must be in 0..2, got 5"),
            (True, "element index must be an integer, not bool"),
            (1.0, "element index must be an integer, not float"),
            ("1", "element index must be an integer, not str"),
            (None, "element index must be an integer, not NoneType"),
        ],
    )
    def test_bad_index_is_a_value_error_naming_the_range_once(self, call, x, message):
        with pytest.raises(ValueError) as raised:
            self.CALLS[call](chain(3), x)
        assert str(raised.value) == message

    @pytest.mark.parametrize("call", CALLS)
    def test_numpy_integer_indices_accepted(self, call):
        assert self.CALLS[call](chain(3), np.int64(2)) == self.CALLS[call](chain(3), 2)


class TestLayerIndices:
    """A layer index or abundance count is an int, as an element index is."""

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda cs: layer(cs, 3, 1.5), "layer index must be an integer, not float"),
            (lambda cs: layer(cs, 3, True), "layer index must be an integer, not bool"),
            (lambda cs: interval_abundances(cs, True), "max_i must be an integer, not bool"),
            (lambda cs: interval_abundances(cs, 2.0), "max_i must be an integer, not float"),
        ],
    )
    def test_non_integer_index_is_a_value_error(self, call, message):
        with pytest.raises(ValueError) as raised:
            call(diamond())
        assert str(raised.value) == message

    def test_numpy_integer_indices_accepted(self):
        assert layer(diamond(), 3, np.int64(1)) == layer(diamond(), 3, 1) == {1, 2}
        assert interval_abundances(diamond(), np.int32(3)) == (4, 0, 1)


class TestTipProduct:
    """The blocked tip product equals the gathered submatrix sums."""

    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_submatrix_sums_over_several_blocks(self, seed):
        config = DiamondConfig(dimension=2, density=700.0, half_height=1.0, seed=seed)
        result = sprinkle(config)
        order = result.causal_set.precedes
        assert result.causal_set.size > 2 * causet._BLOCK_ROWS  # three blocks at the tip
        for x in (result.eval_index, result.causal_set.size // 2, 0):
            below, between = causet._past(result.causal_set, x)
            assert (below == np.flatnonzero(order[:, x])).all()
            want = order[np.ix_(below, below)].sum(axis=1)
            assert between.dtype == want.dtype and (between == want).all()
