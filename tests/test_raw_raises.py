"""A ratchet on the raw ValueError and TypeError raises in the library.

A failure reachable from the CLI should be a typed GraphHamError with a
documented exit code. Each module's count of raw `raise ValueError` and
`raise TypeError` may fall but not rise; lower its ceiling here when a raise
is mapped to a typed error or deleted. A module not listed has ceiling 0.
"""

import re
from pathlib import Path

import graphham

CEILINGS = {"cli": 2, "dynamics": 7, "graph": 2, "hamiltonians": 10, "markov": 5,
            "sbp": 3, "theta": 1}


def test_no_module_gains_a_raw_raise():
    counts = {path.stem: len(re.findall(r"\braise (?:ValueError|TypeError)\b", path.read_text()))
              for path in Path(graphham.__file__).parent.glob("*.py")}
    grown = {name: count for name, count in counts.items() if count > CEILINGS.get(name, 0)}
    assert grown == {}
