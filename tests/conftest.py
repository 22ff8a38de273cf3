import pytest

from centering import (
    Discourse,
    DiscourseEntity,
    Form,
    ReferringExpression,
    ResolutionConstraints,
    Tense,
    Utterance,
    load_fixture,
    run_discourse,
)
from centering.hypotheses import ResolutionOutcome

FIXTURES = [
    "classroom_exam",
    "classroom_exam_topic",
    "research_lab",
    "phone_card",
    "bank_pos",
    "transaction_insurance",
    "etching_factory",
    "factory_article",
    "cvd_device",
    "heater_factory",
    "device_lineup",
]


def overt(entity, role, pos, wa=False, ga=False):
    return ReferringExpression(
        entity_ref=entity,
        form=Form.OVERT_NP,
        role=role,
        surface_position=pos,
        wa_marked=wa,
        ga_marked=ga,
    )


def zero(role, pos, types=(), cardinality=None, gold=None, wa=False):
    return ReferringExpression(
        entity_ref=None,
        form=Form.ZERO,
        role=role,
        surface_position=pos,
        wa_marked=wa,
        constraints=ResolutionConstraints(
            compatible_types=frozenset(types),
            required_cardinality=cardinality,
            gold_antecedent=gold,
        ),
    )


def entity(eid, *types, cardinality=1):
    return DiscourseEntity(eid, frozenset(types or ("thing",)), cardinality)


def utterance(index, *expressions, tense=Tense.NONPAST, text=None):
    return Utterance(index=index, expressions=tuple(expressions), tense=tense, text=text)


def discourse(did, entities, utterances):
    return Discourse(id=did, entities=tuple(entities), utterances=tuple(utterances))


def outcomes(*maps):
    """One local resolution outcome per parent, from position -> antecedent maps."""
    return [ResolutionOutcome(assignments=tuple(sorted(m.items()))) for m in maps]


@pytest.fixture(scope="session")
def fixture_reports():
    """Engine output for every bundled fixture, default configuration."""
    return {name: run_discourse(load_fixture(name)) for name in FIXTURES}


@pytest.fixture(scope="session")
def fixture_discourses():
    return {name: load_fixture(name) for name in FIXTURES}


def labels_of(report, include_seed=True):
    return [
        u.label for u in report.utterances if include_seed or not u.seed
    ]


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One pass/fail line per acceptance criterion."""
    import re

    outcomes = {}
    for status in ("passed", "failed", "error", "xfailed", "xpassed"):
        for rep in terminalreporter.stats.get(status, []):
            nodeid = getattr(rep, "nodeid", "")
            if "test_acceptance" not in nodeid:
                continue
            m = re.search(r"[Cc]riterion(\d+)", nodeid)
            if not m:
                continue
            outcomes.setdefault(int(m.group(1)), []).append(status)
    if not outcomes:
        return
    terminalreporter.write_line("")
    terminalreporter.write_line("acceptance criteria:")
    for crit in sorted(outcomes):
        statuses = outcomes[crit]
        ok = all(s in ("passed", "xfailed") for s in statuses)
        line = f"  criterion {crit}: {'PASS' if ok else 'FAIL'}"
        xf = statuses.count("xfailed")
        if xf:
            line += f"  [{xf} sub-check(s) xfail: documented spec/source conflict]"
        terminalreporter.write_line(line)
