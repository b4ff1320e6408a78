import dataclasses
import json
import math

import pytest

from idtlab.report import TestReport


def test_distance_convention_pass_logic():
    ok = TestReport.from_distance("d", 0.4, 0.5, 100, 7)
    bad = TestReport.from_distance("d", 0.6, 0.5, 100, 7)
    assert ok.passed and not bad.passed


def test_pvalue_convention_pass_logic():
    ok = TestReport.from_pvalue("p", 0.2, 0.01, 100, 7)
    bad = TestReport.from_pvalue("p", 0.001, 0.01, 100, 7)
    assert ok.passed and not bad.passed


def test_inconsistent_report_rejected():
    doc = {"name": "x", "statistic": 0.6, "threshold": 0.5, "n_samples": 10, "seed": 0}
    with pytest.raises(ValueError, match="inconsistent report"):
        TestReport.from_dict({**doc, "pass": True, "details": {"convention": "distance"}})
    with pytest.raises(ValueError, match="inconsistent report"):
        TestReport.from_dict({**doc, "pass": False, "details": {"convention": "p-value"}})
    with pytest.raises(ValueError, match="unknown report convention 'bogus'"):
        TestReport("x", 0.4, 0.5, 10, 0, {"convention": "bogus"})


def test_replace_recomputes_the_verdict():
    rep = TestReport.from_distance("idt[x]", 0.03, 0.05, 20000, 1)
    stricter = dataclasses.replace(rep, threshold=0.02)
    assert rep.passed and not stricter.passed
    assert stricter.to_dict()["pass"] is False
    level = TestReport.from_pvalue("ks[x]", 0.03, 0.01, 20000, 1)
    assert level.passed and not dataclasses.replace(level, threshold=0.05).passed


@pytest.mark.parametrize("make", [TestReport.from_distance, TestReport.from_pvalue], ids=["distance", "p-value"])
def test_nan_fails_and_a_tie_passes_under_both_conventions(make):
    assert make("x", float("nan"), 0.05, 100, 7).passed is False
    assert make("x", 0.05, 0.05, 100, 7).passed is True


def test_json_round_trip_and_stable_key_order():
    rep = TestReport.from_distance("idt[x]", 0.0123, 0.05, 2000, 42, {"n": 2})
    text = rep.to_json()
    assert text == TestReport.from_dict(json.loads(text)).to_json()
    doc = json.loads(text)
    assert doc["pass"] is True
    assert list(doc) == sorted(doc)


def test_tap_lines():
    ok = TestReport.from_distance("idt[x]", 0.0123, 0.05, 2000, 42)
    bad = TestReport.from_distance("idt[x]", 0.9, 0.05, 2000, 42)
    assert ok.to_tap(3).startswith("ok 3 - idt[x] ")
    assert bad.to_tap(4).startswith("not ok 4 - idt[x] ")


def test_nan_is_written_as_null_and_read_back_as_nan():
    def reject(constant):
        raise ValueError(f"not JSON: {constant}")

    nan = float("nan")
    rep = TestReport.from_pvalue("assoc[x]", nan, nan, 100, 7, {"p_values": [0.5, nan], "alpha": nan})
    doc = json.loads(rep.to_json(), parse_constant=reject)
    assert doc["statistic"] is None and doc["threshold"] is None
    assert doc["details"]["p_values"] == [0.5, None] and doc["details"]["alpha"] is None
    back = TestReport.from_dict(doc)
    assert math.isnan(back.statistic) and math.isnan(back.threshold) and not back.passed
    assert back.details["p_values"][0] == 0.5 and math.isnan(back.details["p_values"][1])
    assert back.to_json() == rep.to_json()
    # a file written before NaN became null still reads
    old = TestReport.from_dict(json.loads(rep.to_json().replace("null", "NaN")))
    assert old.to_json() == rep.to_json()
    # a finite report keeps its bytes
    finite = TestReport.from_distance("idt[x]", 0.01, 0.05, 100, 7, {"p_values": [0.5]})
    assert "null" not in finite.to_json()
