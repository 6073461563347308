"""Query-string → CampaignCase parsing: the service's 400 surface.

The load-bearing property is *identity*: a query with only the required
parameters must build the exact case the campaign CLI would build for the
same suite/scale, because the case's content hash is the cache key — any
drift turns every service request into a cache miss of a different case.
"""

import dataclasses

import pytest

from repro.campaign.spec import CampaignCase, expand_suite
from repro.caseset import parse
from repro.experiments.cases import CaseSpec
from repro.service import CaseSpecError, case_from_query

BASE = {"kind": "cholesky", "param": "3", "ul": "1.1"}

#: (kind, param, case-set graph token) for one graph of each family.
GRAPHS = [("random", 10, "rand10"), ("cholesky", 3, "chol10"), ("ge", 4, "ge9")]

#: Every modifier spelled three ways: ``/case`` parameters, the case-set
#: selectors that say the same, and the fields they set on the suite case.
SPELLINGS = [
    ({}, [], {}),
    ({"instance": "3"}, ["seed[3]"], {"instance": 3}),
    ({"base_seed": "42"}, ["base_seed[42]"], {"base_seed": 42}),
    ({"method": "dodin"}, ["method[dodin]"], {"method": "dodin"}),
    (
        {"method": "montecarlo", "mc_batch": "yes"},
        ["method[montecarlo]", "mc_batch[1]"],
        {"method": "montecarlo", "mc_batch": True},
    ),
    ({"fast_conv": "1"}, ["fast_conv[on]"], {"fast_conv": True}),
    ({"n_random": "7"}, ["n_random[7]"], {"n_random": 7}),
    ({"grid_n": "33"}, ["grid_n[33]"], {"grid_n": 33}),
    ({"mc_realizations": "99"}, ["mc_realizations[99]"], {"mc_realizations": 99}),
    (
        {"delta": "0.2", "gamma": "1.001"},
        ["delta[0.2]", "gamma[1.001]"],
        {"delta": 0.2, "gamma": 1.001},
    ),
    (
        {"heuristics": "cpop,heft,cpop"},
        ["heuristic[cpop,heft]"],
        {"heuristics": ("cpop", "heft")},
    ),
]

#: The fields ``expand_suite`` takes as keywords; the rest are replaced.
SUITE_KEYWORDS = ("base_seed", "method", "mc_batch", "fast_conv")


def query(**extra: str) -> dict[str, str]:
    return {**BASE, **extra}


class TestIdentity:
    @pytest.mark.parametrize("kind,param", [("random", 10), ("cholesky", 3), ("ge", 4)])
    @pytest.mark.parametrize("scale", ["quick", "default"])
    def test_defaults_match_campaign_expansion(self, kind, param, scale):
        expected = expand_suite([CaseSpec(kind, param, 1.1)], scale)[0]
        built = case_from_query(
            {"kind": kind, "param": str(param), "ul": "1.1", "scale": scale}
        )
        assert built == expected
        assert built.key == expected.key

    def test_quick_scale_is_the_default(self):
        assert case_from_query(query()) == case_from_query(
            query(scale="quick")
        )

    def test_overrides_change_the_key(self):
        base = case_from_query(query())
        for override in (
            {"n_random": "7"},
            {"grid_n": "33"},
            {"method": "dodin"},
            {"base_seed": "1"},
            {"instance": "2"},
            {"fast_conv": "1"},
            {"heuristics": "heft"},
        ):
            varied = case_from_query(query(**override))
            assert varied.key != base.key, override

    def test_heuristics_parsing(self):
        case = case_from_query(query(heuristics="heft, bil"))
        assert case.heuristics == ("heft", "bil")

    def test_repeated_heuristics_count_once(self):
        """A repeated name would put a second HEFT row among the random ones."""
        once = case_from_query(query(heuristics="heft"))
        assert case_from_query(query(heuristics="heft,heft")).key == once.key
        assert case_from_query(query(heuristics="bil,heft,bil")).heuristics == (
            "bil",
            "heft",
        )

    @pytest.mark.parametrize("kind,param,token", GRAPHS)
    @pytest.mark.parametrize("scale", ["quick", "default", "paper"])
    @pytest.mark.parametrize(
        "params,selectors,fields",
        SPELLINGS,
        ids=["+".join(p) or "defaults" for p, _, _ in SPELLINGS],
    )
    def test_query_term_and_suite_build_one_case(
        self, kind, param, token, scale, params, selectors, fields
    ):
        built = case_from_query(
            {"kind": kind, "param": str(param), "ul": "1.1", "scale": scale, **params}
        )
        term = " x ".join(
            [f"graph[{token}]", "ul[1.1]", f"scale[{scale}]", *selectors]
        )
        (from_term,) = parse(term).cases()
        fields = dict(fields)
        spec = CaseSpec(kind, param, 1.1, fields.pop("instance", 0))
        keywords = {k: fields.pop(k) for k in SUITE_KEYWORDS if k in fields}
        (suite_case,) = expand_suite([spec], scale, **keywords)
        expected = dataclasses.replace(suite_case, **fields)
        assert built == from_term == expected
        assert built.key == from_term.key == expected.key


class TestRejections:
    @pytest.mark.parametrize(
        "params,fragment",
        [
            ({}, "missing required parameter 'kind'"),
            ({"kind": "cholesky"}, "missing required parameter 'param'"),
            ({"kind": "cholesky", "param": "3"}, "'ul'"),
            (query(typo="1"), "unknown parameter"),
            ({**BASE, "kind": "mesh"}, "kind must be one of"),
            (query(param="0"), "param must be >= 1"),
            (query(param="three"), "param must be an integer"),
            (query(ul="0"), "ul must be finite and >= 1"),
            (query(ul="wide"), "ul must be a number"),
            (query(instance="-1"), "instance must be >= 0"),
            (query(scale="galactic"), "galactic"),
            (query(method="oracle"), "method must be one of"),
            (query(n_random="-5"), "n_random must be >= 2"),
            (query(grid_n="1"), "grid_n must be >= 8"),
            (query(mc_realizations="0"), "mc_realizations must be >= 1"),
            (query(fast_conv="maybe"), "fast_conv must be a boolean"),
            (query(mc_batch="1"), "mc_batch requires method montecarlo"),
            (query(heuristics=", ,"), "at least one heuristic"),
            # the graph is checked before its task count is computed
            ({"kind": "ge", "param": "1", "ul": "1.1"}, "param must be >= 2"),
            # cases the metrics or the Monte Carlo engine cannot evaluate
            (query(delta="-1"), "delta must be finite and >= 0"),
            (query(gamma="0.5"), "gamma must be finite and >= 1"),
            (
                query(method="montecarlo", mc_realizations="1"),
                "montecarlo needs mc_realizations >= 2",
            ),
        ],
        ids=lambda v: v if isinstance(v, str) else "",
    )
    def test_bad_queries_raise_named_errors(self, params, fragment):
        with pytest.raises(CaseSpecError) as err:
            case_from_query(params)
        assert fragment in str(err.value)

    def test_unknown_parameter_is_named(self):
        with pytest.raises(CaseSpecError) as err:
            case_from_query(query(gridn="65"))
        assert "gridn" in str(err.value)

    def test_mc_batch_allowed_with_montecarlo(self):
        case = case_from_query(query(method="montecarlo", mc_batch="yes"))
        assert case.mc_batch is True

    def test_case_check_refuses_a_repeated_heuristic(self):
        case = CampaignCase(
            CaseSpec("cholesky", 3, 1.1), heuristics=("heft", "heft")
        )
        with pytest.raises(ValueError, match="must not repeat"):
            case.check()

    def test_error_is_a_value_error(self):
        # the server relies on CaseSpecError staying a ValueError subtype
        assert issubclass(CaseSpecError, ValueError)
