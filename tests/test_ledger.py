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
