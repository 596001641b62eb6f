"""Every cell of the value ledger (tests/ledger.py) recomputes to its pinned value."""

import ledger


def test_every_ledger_cell_recomputes_to_its_pinned_value():
    pinned = ledger.load()
    seen = []
    for key, value in ledger.cells():
        assert key in pinned, f"cell {key} is not in the ledger"
        assert value == pinned[key], f"first differing cell {key}: ledger {pinned[key]}, now {value}"
        seen.append(key)
    assert seen == list(pinned), "the ledger holds cells that are no longer computed"


def test_moved_cells_are_grouped_by_kind():
    err = {"error": "PrecisionError", "message": "lost"}
    bound = {"error": "EnumerationBound", "message": "big"}
    pinned = {"a": 1, "b": err, "c": err, "d": 2, "e": 3, "f": [0, 1], "g": 4}
    now = {"a": 1, "b": 5, "c": bound, "d": err, "e": 0, "f": [0, 1], "h": 6}
    groups = ledger.moved(pinned, now)
    assert list(groups) == list(ledger.GROUPS)
    assert groups["error -> value"] == [("b", err, 5), ("h", {"error": "missing"}, 6)]
    assert groups["error -> error"] == [("c", err, bound)]
    assert groups["value -> error"] == [("d", 2, err), ("g", 4, {"error": "missing"})]
    assert groups["value -> value"] == [("e", 3, 0)]
    assert ledger.moved(pinned, dict(pinned)) == {g: [] for g in ledger.GROUPS}
