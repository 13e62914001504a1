from treepoly.reports import CheckReport


def test_record_counts_every_violation_and_keeps_fifty():
    rep = CheckReport("lemma")
    for i in range(60):
        rep.record((i,), f"case {i}")
    assert rep.violation_count == 60
    assert len(rep.violations) == 50
    assert rep.violations[-1].reason == "case 49"
    assert rep.to_json_dict()["violation_count"] == 60
    assert not rep.ok
