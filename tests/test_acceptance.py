"""Verification sweep; one pass/fail line per criterion.

Every check is exact (equality of rationals, polynomials or normal forms)
except the floating-point residual bounds of the representation criterion,
which are 1e-10 (truncated matrices) and 1e-12 (scalar representations)
as stated in the criterion itself.
"""
import pytest

from weylbundles import acceptance
from weylbundles.acceptance import CRITERIA, summarize
from weylbundles.config import PRESETS, preset


@pytest.mark.parametrize("key,title,func", CRITERIA, ids=[c[0] for c in CRITERIA])
def test_criterion(key, title, func):
    summary = summarize(key, title, func())
    status = "PASS" if summary["pass"] else "FAIL"
    print(f"{status} {key}: {title} ({summary['checks']} checks, {summary['failed']} failed)")
    assert summary["pass"], summary


def chain_record(name: str, g: int) -> dict:
    checks: list = []
    acceptance._chain_roundtrip(checks, name, preset(name).ambient_algebra(), g)
    (record,) = checks
    return record


@pytest.mark.parametrize("g", [1, 2, -1, -2])
@pytest.mark.parametrize("name", PRESETS)
def test_chain_roundtrip_composes_in_every_direction(name, g):
    # at g = -2 every preset's class witness needs the subgroup witness of degree -1
    assert chain_record(name, g)["pass"]


def test_chain_roundtrip_names_the_missing_witness(monkeypatch):
    search = acceptance.witness_search
    monkeypatch.setattr(acceptance, "witness_search", lambda view, g, bound: None)
    assert chain_record("sphere", 1)["got"] == "no class witness"
    # the class witness mod 2 is found; no witness of the halved grading is
    monkeypatch.setattr(acceptance, "witness_search", lambda view, g, bound: (
        None if view.modulus is None else search(view, g, bound)))
    for g, degree in ((1, 2), (-2, -1)):
        record = chain_record("sphere", g)
        assert not record["pass"] and record["got"] == f"no subgroup witness for degree {degree}"


def _record(ok: bool) -> dict:
    return {"check": "fake", "params": {}, "expected": "1", "got": "1" if ok else "0",
            "pass": ok}


def test_summary_without_checks_fails():
    assert summarize("empty", "no checks", []) == {
        "criterion": "empty", "title": "no checks", "checks": 0, "failed": 0,
        "pass": False, "failures": [],
    }
    assert summarize("one", "t", [_record(True)])["pass"] is True
    failing = summarize("two", "t", [_record(True), _record(False)])
    assert failing["pass"] is False and failing["failed"] == 1
    assert failing["failures"] == [_record(False)]


def test_run_all_is_lazy(monkeypatch):
    def boom():
        raise RuntimeError("ran before the first summary was taken")

    monkeypatch.setattr(acceptance, "CRITERIA", (
        ("a", "cheap", lambda: [_record(True)]),
        ("b", "raises", boom),
    ))
    summaries = acceptance.run_all()
    assert next(summaries)["criterion"] == "a"
    with pytest.raises(RuntimeError):
        next(summaries)
