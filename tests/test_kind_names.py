"""Outside operators.py no module names a ball game.

Tug-of-war and the random walk are the mixed game at alpha = 1 and 0, so
play, coupled play, the solver and the command line read alpha (and
GameSpec.players), and tell only the ball games from the directional game.
Parsing keeps docstring prose out of the check: only a string constant
equal to a ball game's kind counts.
"""

import ast
from pathlib import Path

import dpplab

BALL_GAMES = {"tug_of_war", "random_walk", "space_dependent"}


def test_only_operators_names_a_ball_game():
    found = []
    for path in sorted(Path(dpplab.__file__).parent.glob("*.py")):
        if path.name == "operators.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Constant) and node.value in BALL_GAMES:
                found.append(f"{path.name}:{node.lineno} {node.value}")
    assert found == []
