"""Property tests for the case-set algebra.

The three contracts the sweep stack leans on:

* ``fold(expand(s)) == fold(s)`` — folding is a faithful round trip for
  every expression in the grammar corpus (and idempotent);
* expansion is deterministic: same expression → same ordered case keys,
  any spelling of the same set → the same canonical form;
* set operations behave like sets over case *keys*: A∪B ⊇ A, A∖A = ∅,
  and the expression operators match the Python operators.

Plus the rejection table: every malformed expression raises
:class:`CaseSetError` with a message naming the problem — the service
maps these to structured 400s, mirroring the ``/case`` table.
"""

import pytest

from repro.campaign.spec import expand_suite
from repro.caseset import CaseSet, CaseSetError, expand, fold, parse
from repro.caseset.grammar import (
    fold_floats,
    fold_ints,
    parse_float_values,
    parse_int_values,
)
from repro.experiments.cases import default_suite
from repro.service.spec import case_from_query

#: The grammar corpus: every construct the parser accepts.
CORPUS = [
    "graph[chol10] x ul[1.1]",
    "graph[rand10,rand30] x ul[1.01,1.1] x seed[0-2]",
    # the flagship expression of the docs
    "heuristic[heft,cpop] x ul[1.1-1.6/0.1] x graph[chol84,ge90] x seed[0-9]",
    "graph[ge9] x ul[1.1] x seed[0-8/2]",
    "graph[chol10] x ul[1.1] x method[classical,dodin]",
    "graph[chol10] x ul[1.1] x method[montecarlo] x mc_batch[1]",
    "graph[chol10] x ul[1.1] x scale[paper] x base_seed[42]",
    "graph[chol10] x ul[1.1] x n_random[7] x grid_n[33] x mc_realizations[99]",
    "graph[chol10] x ul[1.1] x delta[0.2] x gamma[1.001] x fast_conv[1]",
    "graph[chol10,chol20] x ul[1.1,1.2], graph[ge9] x ul[1.3]",
    "graph[chol10] x ul[1.1,1.2] & graph[chol10] x ul[1.2,1.3]",
    "graph[chol10] x ul[1.1,1.2] ! graph[chol10] x ul[1.2]",
    "graph[cholesky10] x ul[1.1]",
    "graph[random10] * ul[1.1] * instance[3]",
    "GRAPH[chol10] x UL[1.1] x Heuristic[heft]",
]


class TestRoundTrip:
    @pytest.mark.parametrize("expr", CORPUS)
    def test_fold_expand_round_trips(self, expr):
        """fold(expand(s)) selects the same cases as s, canonically."""
        original = parse(expr)
        folded = fold(original)
        reparsed = parse(folded)
        assert reparsed.keys() == original.keys()
        assert fold(reparsed) == folded  # idempotent

    @pytest.mark.parametrize("expr", CORPUS)
    def test_expansion_is_deterministic(self, expr):
        assert parse(expr).keys() == parse(expr).keys()
        assert [c.key for c in expand(expr)] == parse(expr).keys()

    def test_spelling_variants_share_one_canonical_form(self):
        """Order/spelling of values never changes the folded form."""
        a = parse("graph[chol84,ge90] x ul[1.1-1.6/0.1] x seed[0-9]")
        b = parse(
            "graph[ge90,chol84] x ul[1.6,1.5,1.4,1.3,1.2,1.1] "
            "x seed[0,1,2,3,4,5,6,7,8,9]"
        )
        assert a.fold() == b.fold()
        assert a.keys() == b.keys()

    def test_expansion_order_is_ul_graph_seed(self):
        """The odometer unrolls ul slowest, then graph, then seed."""
        entries = parse("graph[ge9,chol10] x ul[1.1,1.2] x seed[0,1]").entries()
        coords = [(e.ul, e.graph.token, e.seed) for e in entries]
        assert coords == [
            (1.1, "chol10", 0),
            (1.1, "chol10", 1),
            (1.1, "ge9", 0),
            (1.1, "ge9", 1),
            (1.2, "chol10", 0),
            (1.2, "chol10", 1),
            (1.2, "ge9", 0),
            (1.2, "ge9", 1),
        ]


class TestSetOps:
    A = "graph[chol10] x ul[1.1,1.2] x seed[0-3]"
    B = "graph[chol10] x ul[1.2,1.3] x seed[2-5]"

    def test_union_contains_both_sides(self):
        a, b = parse(self.A), parse(self.B)
        u = a | b
        assert set(a.keys()) <= set(u.keys())
        assert set(b.keys()) <= set(u.keys())
        assert len(u) <= len(a) + len(b)

    def test_self_difference_is_empty(self):
        a = parse(self.A)
        assert len(a - a) == 0
        assert (a - a).fold() == ""
        assert not (a - a)

    def test_self_intersection_is_identity(self):
        a = parse(self.A)
        assert (a & a) == a

    def test_expression_operators_match_python_operators(self):
        a, b = parse(self.A), parse(self.B)
        assert parse(f"{self.A}, {self.B}").keys() == (a | b).keys()
        assert parse(f"{self.A} & {self.B}").keys() == (a & b).keys()
        assert parse(f"{self.A} ! {self.B}").keys() == (a - b).keys()

    def test_missing_subset_folds_back_to_an_expression(self):
        """The warm/cold split's 'what is missing' is itself foldable."""
        full = parse("graph[chol10] x ul[1.1,1.2] x seed[0-3]")
        warm = parse("graph[chol10] x ul[1.1] x seed[0-3]")
        missing = full - warm
        assert parse(missing.fold()).keys() == missing.keys()
        assert (warm | missing).keys() == full.keys()

    def test_dedup_by_case_key_across_spellings(self):
        """Equal cases written differently collapse in a union."""
        explicit = "graph[chol10] x ul[1.1] x method[classical]"
        implicit = "graph[chol10] x ul[1.1]"
        assert len(parse(f"{explicit}, {implicit}")) == 1


class TestCrossLayerAnchors:
    def test_same_case_key_as_the_service_resolver(self):
        """An expression coordinate is the exact ``/case`` query case."""
        ours = parse("graph[chol10] x ul[1.1]").cases()[0]
        theirs = case_from_query(
            {"kind": "cholesky", "param": "3", "ul": "1.1"}
        )
        assert ours.key == theirs.key

    def test_seed_axis_is_the_spec_instance(self):
        case = parse("graph[rand10] x ul[1.1] x seed[3]").cases()[0]
        assert case.spec.instance == 3

    def test_fig6_quick_suite_as_an_expression(self):
        """The fig-6 quick suite is expressible (the CI sweep identity)."""
        suite = expand_suite(default_suite(), scale="quick")
        expr = (
            "graph[rand10,rand30,rand100] x ul[1.01,1.1] x seed[0-1], "
            "graph[chol10,chol35,chol84,ge9,ge27,ge90] x ul[1.01,1.1]"
        )
        assert set(parse(expr).keys()) == {c.key for c in suite}

    def test_graph_tokens_resolve_task_counts(self):
        cases = parse("graph[chol84,ge90,rand17] x ul[1.1]").cases()
        by_kind = {c.spec.kind: c.spec for c in cases}
        assert by_kind["cholesky"].param == 7  # 84 tasks
        assert by_kind["ge"].param == 13  # 90 tasks
        assert by_kind["random"].param == 17


class TestRanges:
    def test_int_ranges_round_trip(self):
        # The term parser splits folded output on commas before typing it.
        for values in ([0], [1, 2], [1, 5], list(range(10)), [0, 2, 4, 6]):
            assert parse_int_values(
                "seed", fold_ints(values).split(",")
            ) == sorted(set(values))
        assert fold_ints(list(range(10))) == "0-9"
        assert fold_ints([0, 2, 4, 6]) == "0-6/2"

    def test_float_range_expands_on_the_decimal_lattice(self):
        """No accumulation drift: each value is its decimal's float."""
        got = parse_float_values("ul", ["0.1-0.6/0.1"])
        assert got == [0.1, 0.2, 0.3, 0.4, 0.5, 0.6]

    def test_float_fold_round_trips_exactly(self):
        values = parse_float_values("ul", ["0.1-0.6/0.1"])
        folded = fold_floats(values)
        assert parse_float_values("ul", [folded]) == values

    def test_irregular_floats_fold_to_an_explicit_list(self):
        values = [1.01, 1.1, 2.5]
        folded = fold_floats(values)
        assert parse_float_values("ul", folded.split(",")) == values


#: (expression, fragment expected in the error message)
MALFORMED = [
    ("", "empty term"),
    ("graph[chol84", "unbalanced"),
    ("graph]chol84[ x ul[1.1]", "unbalanced"),
    ("graph[] x ul[1.1]", "empty value"),
    ("graph[chol84] ul[1.1]", "expected 'x'"),
    ("graph[chol84] x", "selector"),
    ("graph[chol84] x ul[1.1] x ul[1.2]", "twice"),
    ("graph[chol84] x ul[1.1] x instance[1] x seed[2]", "twice"),
    ("ul[1.1]", "graph"),
    ("graph[chol84]", "ul"),
    ("graph[bogus1] x ul[1.1]", "graph must look like"),
    ("graph[chol85] x ul[1.1]", "nearest valid"),
    ("graph[ge1] x ul[1.1]", "nearest valid"),
    ("graph[chol84] x ul[abc]", "numbers"),
    ("graph[chol84] x ul[0]", "> 0"),
    ("graph[chol84] x ul[0.6-0.1/0.1]", "backwards"),
    ("graph[chol84] x ul[0.1-0.6]", "step"),
    ("graph[chol84] x ul[1.1] x seed[-1]", "integers"),
    ("graph[chol84] x ul[1.1] x seed[9-0]", "backwards"),
    ("graph[chol84] x ul[1.1] x seed[0-9/0]", "step"),
    ("graph[chol84] x ul[1.1] x bogus[3]", "unknown axis"),
    ("graph[chol84] x ul[1.1] x heuristic[nope]", "unknown heuristic"),
    ("graph[chol84] x ul[1.1] x method[magic]", "method"),
    ("graph[chol84] x ul[1.1] x scale[warp]", "scale"),
    ("graph[chol84] x ul[1.1] x scale[quick,paper]", "modifier"),
    ("graph[chol84] x ul[1.1] x n_random[x]", "integer"),
    ("graph[chol84] x ul[1.1] x grid_n[1]", ">= 2"),
    ("graph[chol84] x ul[1.1] x mc_realizations[0]", ">= 1"),
    ("graph[chol84] x ul[1.1] x fast_conv[maybe]", "boolean"),
    ("graph[chol84] x ul[1.1] x mc_batch[1]", "montecarlo"),
    # cases no worker can run (CampaignCase.check)
    ("graph[chol84] x ul[0.5]", "ul must be finite and >= 1"),
    ("graph[chol84] x ul[1.1] x n_random[1]", "n_random must be >= 2"),
    ("graph[chol84] x ul[1.1] x grid_n[4]", "grid_n must be >= 8"),
    ("graph[chol84] x ul[1.1] x method[spelde] x fast_conv[1]", "fast_conv"),
    ("graph[chol84] x ul[1.1] x delta[nan]", "delta must be finite"),
    ("graph[chol84] x ul[1.1],", "empty term"),
]


class TestRejections:
    @pytest.mark.parametrize("expr,fragment", MALFORMED)
    def test_malformed_expression_raises_with_context(self, expr, fragment):
        with pytest.raises(CaseSetError) as err:
            parse(expr)
        assert fragment in str(err.value)

    def test_oversize_expansion_is_refused_before_work(self):
        with pytest.raises(CaseSetError) as err:
            parse("graph[chol10] x ul[1.1] x seed[0-99]", max_cases=10)
        assert "limit" in str(err.value)

    def test_caseset_error_is_a_value_error(self):
        """The service boundary catches ValueError subclasses uniformly."""
        assert issubclass(CaseSetError, ValueError)
