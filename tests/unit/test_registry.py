"""The shared name-registry grammar (:mod:`repro.registry`), checked once
over both of its registries: passes (``--passes``) and recommenders
(``--recommenders``)."""

from dataclasses import dataclass
from typing import Callable, List

import pytest

from repro.errors import RecommendationError
from repro.passes.registry import (
    PASSES,
    UnknownPassError,
    create_pass,
    parse_pipeline,
    registry_fingerprint,
)
from repro.recommend.registry import (
    DEFAULT_SELECTION,
    RECOMMENDERS,
    create_recommender,
    parse_selection,
    recommender_registry_fingerprint,
)


@dataclass
class Case:
    """One registry through its public names, plus grammar fixtures."""

    parse: Callable[[object], List[str]]
    create: Callable[[str], object]
    fingerprint: Callable[[], str]
    error: type
    #: An alias, its expansion, and one name of that expansion.
    alias: str
    expansion: List[str]
    member: str
    #: A second alias, disjoint from the first.
    other_alias: str
    unknown: str
    unknown_negation: str
    pinned_fingerprint: str


CASES = {
    "passes": Case(
        parse=parse_pipeline,
        create=create_pass,
        fingerprint=registry_fingerprint,
        error=UnknownPassError,
        alias="carmot",
        expansion=[
            "callgraph-o3", "selective-mem2reg", "fixed-classification",
            "aggregation", "subsequent-accesses", "pin-reduction",
            "out-of-roi-suppression", "instrument",
        ],
        member="pin-reduction",
        other_alias="baseline",
        unknown=(
            "unknown pass 'bogus'; registered passes: aggregation, "
            "callgraph-o3, cleanup, fixed-classification, instrument, "
            "mem2reg, naive-instrument, o3, out-of-roi-suppression, "
            "pin-reduction, selective-mem2reg, subsequent-accesses; "
            "aliases: baseline, carmot, naive"
        ),
        unknown_negation=(
            "unknown pass 'bogus' in negation '-bogus' (choose from "
            "registered passes ['aggregation', 'callgraph-o3', 'cleanup', "
            "'fixed-classification', 'instrument', 'mem2reg', "
            "'naive-instrument', 'o3', 'out-of-roi-suppression', "
            "'pin-reduction', 'selective-mem2reg', 'subsequent-accesses'] "
            "or aliases ['baseline', 'carmot', 'naive'])"
        ),
        pinned_fingerprint=(
            "52ff7d0f387a76d7c457e494f64a8f99"
            "52a80520e65d0cc10671ee4f767168ea"
        ),
    ),
    "recommenders": Case(
        parse=parse_selection,
        create=create_recommender,
        fingerprint=recommender_registry_fingerprint,
        error=RecommendationError,
        alias="paper",
        expansion=["parallel_for", "task", "smart_pointers", "stats"],
        member="stats",
        other_alias="roles",
        unknown=(
            "unknown recommender 'bogus'; registered recommenders: "
            "parallel_for, privatization_hint, reduction_hint, "
            "smart_pointers, stats, task; aliases: all, paper, roles"
        ),
        unknown_negation=(
            "unknown recommender 'bogus' in negation '-bogus' (choose from "
            "registered recommenders ['parallel_for', 'privatization_hint', "
            "'reduction_hint', 'smart_pointers', 'stats', 'task'] "
            "or aliases ['all', 'paper', 'roles'])"
        ),
        pinned_fingerprint=(
            "59fda03f3ebfc8d3466932d6a5f2eb43"
            "8c1d80208f0db306062acbb66ce5c508"
        ),
    ),
}


@pytest.fixture(params=sorted(CASES))
def case(request):
    return CASES[request.param]


def test_alias_expands_in_place(case):
    assert case.parse(case.alias) == case.expansion


def test_negated_name_removes_it(case):
    assert case.parse(f"{case.alias},-{case.member}") == [
        name for name in case.expansion if name != case.member]


def test_negated_alias_removes_its_expansion(case):
    other = case.parse(case.other_alias)
    assert case.parse(
        f"{case.other_alias}, {case.alias} ,-{case.other_alias}"
    ) == case.expansion
    assert other and not set(other) & set(case.expansion)


def test_sequence_input_reads_like_text(case):
    tokens = [case.alias, f"-{case.member}", case.member]
    assert case.parse(tokens) == case.parse(",".join(tokens))


def test_unknown_name_message(case):
    with pytest.raises(case.error) as excinfo:
        case.parse(f"{case.alias},bogus")
    assert str(excinfo.value) == case.unknown
    with pytest.raises(case.error) as excinfo:
        case.create("bogus")
    assert str(excinfo.value) == case.unknown


def test_unknown_negation_message(case):
    with pytest.raises(case.error) as excinfo:
        case.parse(f"{case.alias},-bogus")
    assert str(excinfo.value) == case.unknown_negation


def test_fingerprint_is_pinned(case):
    """Part of every pipeline and recommend cache key: a change here
    moves stored artifacts' keys."""
    assert case.fingerprint() == case.pinned_fingerprint


@pytest.mark.parametrize("registry", [PASSES, RECOMMENDERS],
                         ids=["passes", "recommenders"])
def test_register_refuses_unnamed_and_duplicate_classes(registry):
    base = registry.create(registry.names()[0]).__class__

    class Unnamed(base):
        pass

    with pytest.raises(ValueError, match="needs a name attribute"):
        registry.register(Unnamed)
    with pytest.raises(ValueError, match="registered twice"):
        registry.register(base)


def test_recommender_selection_defaults_and_dedupes():
    assert parse_selection(None) == parse_selection(DEFAULT_SELECTION)
    assert parse_selection(None) == ["reduction_hint", "privatization_hint"]
    assert parse_selection("stats,paper,stats") == [
        "stats", "parallel_for", "task", "smart_pointers"]
