"""Parameter names that the benchmark's span tracer binds.

perfbench/spans.py counts the work of a traced call by binding its
arguments by name: the step count of a linear march from (t0, t1, dt) or
(s, t, dt), the sampled paths from n_paths, the evaluated times from ts. A
renamed parameter breaks the traced pass, and no benchmark workload calls
schrodinger_evolve, so no toy pass would catch a rename there.
"""

import inspect

import pytest

from graphham.dynamics import fundamental_matrix, schrodinger_evolve
from graphham.hamiltonians import ReferenceRates
from graphham.markov import propagator, sample_paths


TRACED = [
    (fundamental_matrix, ["t0", "t1", "dt"]),
    (schrodinger_evolve, ["t0", "t1", "dt"]),
    (propagator, ["s", "t", "dt"]),
    (sample_paths, ["n_paths"]),
    (ReferenceRates.at_many, ["ts"]),
]


@pytest.mark.parametrize("fn, names", TRACED, ids=[fn.__qualname__ for fn, _ in TRACED])
def test_traced_parameter_names(fn, names):
    params = list(inspect.signature(fn).parameters)
    assert [p for p in params if p in names] == names


def test_at_many_takes_its_times_second():
    # the tracer reads a positional call's times at args[1], after self
    assert list(inspect.signature(ReferenceRates.at_many).parameters)[:2] == ["self", "ts"]
