"""The timing order of the A/B tools under ``tools/``."""

from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
COPIES = ["parent 1", "change 1", "change 2", "parent 2"]  # as ``load_copies`` makes them


def timing_orders(monkeypatch, n_rounds: int) -> list[list[str]]:
    """The order in which ``run_rounds`` hands the copies to ``time_round``,
    round by round."""
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    from ab_step_map import run_rounds

    orders = []

    def time_round(order):
        orders.append(list(order))
        return {c: {"case": 1.0} for c in order}

    run_rounds(COPIES, n_rounds, time_round, lambda a, b: "")
    return orders


@pytest.mark.parametrize("n_rounds", [2, 6, 16])
def test_each_side_takes_each_slot_equally_often(monkeypatch, n_rounds):
    orders = timing_orders(monkeypatch, n_rounds)
    for slot in range(4):
        sides = Counter(order[slot].split()[0] for order in orders)
        assert sides == {"parent": n_rounds // 2, "change": n_rounds // 2}


def test_each_copy_takes_each_slot_once_in_four_rounds(monkeypatch):
    orders = timing_orders(monkeypatch, 4)
    for slot in range(4):
        assert sorted(order[slot] for order in orders) == sorted(COPIES)
