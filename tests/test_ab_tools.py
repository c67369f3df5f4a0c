"""The timing order and the last line of the A/B tools under ``tools/``."""

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


def last_line(monkeypatch, capsys, ratios: list[float]) -> str:
    """The last line ``run_rounds`` prints when the change's copies take
    ``ratios[r]`` times the parent's in round r."""
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    from ab_step_map import run_rounds

    rounds = iter(ratios)

    def time_round(order):
        r = next(rounds)
        return {c: {"case": r if c.startswith("change") else 1.0} for c in order}

    run_rounds(COPIES, len(ratios), time_round, lambda a, b: "")
    return capsys.readouterr().out.splitlines()[-1]


def test_last_line_gives_the_quartiles_of_the_ratios(monkeypatch, capsys):
    line = last_line(monkeypatch, capsys, [1.2, 0.9, 1.1, 1.0])
    assert line == "median ratio 1.050 (quartiles 0.925-1.175) over 4 rounds; change faster in 1 of 4"


def test_one_round_has_no_quartiles(monkeypatch, capsys):
    line = last_line(monkeypatch, capsys, [0.8])
    assert line == "median ratio 0.800 over 1 rounds; change faster in 1 of 1"


def test_each_copy_takes_each_slot_once_in_four_rounds(monkeypatch):
    orders = timing_orders(monkeypatch, 4)
    for slot in range(4):
        assert sorted(order[slot] for order in orders) == sorted(COPIES)
