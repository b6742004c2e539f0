"""Tests for the parallel hash join — correctness and slide-23/24 load behaviour."""

import pytest

from repro.data.generators import (
    matching_relation,
    regular_degree_relation,
    single_value_relation,
    uniform_relation,
)
from repro.data.relation import Relation
from repro.errors import QueryError
from repro.joins.hash_join import parallel_hash_join


def reference(r, s):
    return sorted(r.join(s).rows())


class TestCorrectness:
    def test_small_example(self):
        r = Relation("R", ["x", "y"], [("a", "b"), ("a", "c"), ("b", "c")])
        s = Relation("S", ["y", "z"], [("b", "d"), ("b", "e"), ("c", "e")])
        run = parallel_hash_join(r, s, p=3)
        assert sorted(run.output.rows()) == reference(r, s)

    def test_uniform_data(self):
        r = uniform_relation("R", ["x", "y"], 400, 60, seed=1)
        s = uniform_relation("S", ["y", "z"], 400, 60, seed=2)
        run = parallel_hash_join(r, s, p=8)
        assert sorted(run.output.rows()) == reference(r, s)

    def test_multi_attribute_key(self):
        r = Relation("R", ["x", "y", "w"], [(1, 2, 3), (1, 2, 4), (9, 9, 9)])
        s = Relation("S", ["y", "w", "z"], [(2, 3, 7), (2, 4, 8)])
        run = parallel_hash_join(r, s, p=4)
        assert sorted(run.output.rows()) == reference(r, s)

    def test_empty_inputs(self):
        r = Relation("R", ["x", "y"])
        s = Relation("S", ["y", "z"], [(1, 2)])
        run = parallel_hash_join(r, s, p=4)
        assert len(run.output) == 0

    def test_disjoint_schemas_rejected(self):
        r = Relation("R", ["x"], [(1,)])
        s = Relation("S", ["z"], [(2,)])
        with pytest.raises(QueryError):
            parallel_hash_join(r, s, p=2)

    def test_output_schema(self):
        r = Relation("R", ["x", "y"], [(1, 2)])
        s = Relation("S", ["y", "z"], [(2, 3)])
        run = parallel_hash_join(r, s, p=2)
        assert run.output.schema.attributes == ("x", "y", "z")

    def test_p_one(self):
        r = uniform_relation("R", ["x", "y"], 50, 20, seed=3)
        s = uniform_relation("S", ["y", "z"], 50, 20, seed=4)
        run = parallel_hash_join(r, s, p=1)
        assert sorted(run.output.rows()) == reference(r, s)


class TestMixedNumericKeys:
    """Regression: 1 and 1.0 are equal join keys at every p.

    Integral floats used to hash by ``repr`` while ints took the integer
    path, so ``(2, 1.0)`` and ``(1, 8)`` were routed to different servers
    at p > 1 and their join row went missing.
    """

    R = [(1, 0.5), (2, 1.0)]
    S = [(0.5, 7), (1, 8)]
    WANT = [(1, 0.5, 7), (2, 1.0, 8)]

    @pytest.mark.parametrize("kernels", [True, False])
    @pytest.mark.parametrize("p", [1, 4, 16])
    def test_output_independent_of_p(self, p, kernels):
        from repro.kernels.config import use_kernels

        r = Relation("R", ["a", "b"], self.R)
        s = Relation("S", ["b", "c"], self.S)
        with use_kernels(kernels):
            run = parallel_hash_join(r, s, p=p)
        assert sorted(run.output.rows()) == self.WANT

    @pytest.mark.parametrize("p", [1, 4, 16])
    def test_engine_verify(self, p):
        from repro import Engine

        engine = Engine(p=p)
        engine.register(Relation("R", ["a", "b"], self.R))
        engine.register(Relation("S", ["b", "c"], self.S))
        result = engine.query("R(a,b), S(b,c)", verify=True)
        assert sorted(result.output.rows()) == self.WANT


class TestCosts:
    def test_single_round(self):
        r = uniform_relation("R", ["x", "y"], 100, 30, seed=1)
        s = uniform_relation("S", ["y", "z"], 100, 30, seed=2)
        run = parallel_hash_join(r, s, p=4)
        assert run.rounds == 1

    def test_no_skew_load_near_in_over_p(self):
        # Slide 24: matching data (degree 1) concentrates at IN/p.
        n, p = 4000, 8
        r = matching_relation("R", ["x", "y"], n)
        s = matching_relation("S", ["y", "z"], n)
        run = parallel_hash_join(r, s, p=p)
        expected = 2 * n / p
        assert run.load < 1.5 * expected

    def test_degree_d_load_grows(self):
        # Slide 25: degree-d values raise the tail; with d = IN/p the load
        # is noticeably above IN/p.
        n, p = 4000, 8
        light = parallel_hash_join(
            matching_relation("R", ["x", "y"], n),
            matching_relation("S", ["y", "z"], n),
            p=p,
        )
        heavy = parallel_hash_join(
            regular_degree_relation("R", ["x", "y"], n, "y", degree=n // p, seed=1),
            regular_degree_relation("S", ["y", "z"], n, "y", degree=n // p, seed=2),
            p=p,
        )
        assert heavy.load > light.load

    def test_extreme_skew_load_is_in(self):
        # Slide 27: one join value -> every tuple lands on one server.
        n, p = 500, 8
        r = single_value_relation("R", ["x", "y"], n, "y")
        s = single_value_relation("S", ["y", "z"], n, "y")
        run = parallel_hash_join(r, s, p=p)
        assert run.load == 2 * n

    def test_deterministic_given_seed(self):
        r = uniform_relation("R", ["x", "y"], 200, 40, seed=1)
        s = uniform_relation("S", ["y", "z"], 200, 40, seed=2)
        a = parallel_hash_join(r, s, p=4, seed=9)
        b = parallel_hash_join(r, s, p=4, seed=9)
        assert a.load == b.load
        assert sorted(a.output.rows()) == sorted(b.output.rows())
