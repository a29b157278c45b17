"""The acceptance suite: one test per criterion, one line printed each.

All tolerances are zero (exact arithmetic); randomized suites use
GBS_SEED (default 0).
"""

import pytest

from gliderbs.acceptance import CRITERIA


@pytest.mark.parametrize("criterion", CRITERIA,
                         ids=[f"criterion-{i + 1}"
                              for i in range(len(CRITERIA))])
def test_acceptance(criterion, capsys):
    result = criterion()
    with capsys.disabled():
        status = "PASS" if result["ok"] else "FAIL"
        print(f"\n[acceptance {result['id']:2d}] {status}  "
              f"{result['detail']}")
    assert result["ok"], result["detail"]


def test_only_selected_criteria_run(monkeypatch, capsys):
    from gliderbs import acceptance
    from gliderbs.cli import main

    called = []

    def stub(i):
        def run():
            called.append(i)
            return {"id": i, "ok": True, "detail": "stub"}
        return run

    monkeypatch.setattr(acceptance, "CRITERIA",
                        [stub(i) for i in range(1, 11)])
    assert [r["id"] for r in acceptance.run_all({2, 6})] == [2, 6]
    assert called == [2, 6]
    called.clear()
    assert main(["selftest", "--criteria", "6"]) == 0
    assert called == [6]
    assert "1/1 criteria pass" in capsys.readouterr().out
    called.clear()
    assert len(acceptance.run_all()) == 10 and called == list(range(1, 11))
