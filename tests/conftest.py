"""Shared fixtures.  Expensive analyses are session-scoped and shared."""

import pytest

from repro.ir import build_program


SIMPLE_SRC = """
      PROGRAM main
      DIMENSION a(100), b(100)
      INTEGER n
      n = 50
      CALL fill(a, n)
      DO 20 i = 2, n
        b(i) = a(i-1) + a(i)
20    CONTINUE
      s = 0.0
      DO 30 i = 1, n
        s = s + b(i)
30    CONTINUE
      PRINT *, s
      END

      SUBROUTINE fill(q, m)
      DIMENSION q(*)
      DO 10 j = 1, m
        q(j) = j * 0.5
10    CONTINUE
      END
"""


class EveryLoopParallel:
    """A plan stub flagging every loop parallel: each outermost loop
    becomes a simulated region, whatever the static analysis would say
    (for the simulated-run parity tests)."""

    loops = {}

    def __init__(self, program):
        self._loops = program.all_loops()

    def parallel_loops(self):
        return self._loops


def regions_state(executor):
    """Everything the cost model reads from one simulated run."""
    return ([(r.loop.stmt_id, r.seq_ops, r.iter_costs,
              sorted(r.buffers.items()), r.accesses, r.red_updates,
              sorted(r.red_touched)) for r in executor.regions],
            executor._total_ops, executor._outputs)


@pytest.fixture(scope="session")
def simple_program():
    return build_program(SIMPLE_SRC, "simple")


@pytest.fixture()
def fresh_simple_program():
    return build_program(SIMPLE_SRC, "simple")


@pytest.fixture(scope="session")
def mdg_workload():
    from repro.workloads import get
    return get("mdg")


@pytest.fixture(scope="session")
def mdg_program(mdg_workload):
    return mdg_workload.build()


@pytest.fixture(scope="session")
def hydro_workload():
    from repro.workloads import get
    return get("hydro")


@pytest.fixture(scope="session")
def hydro_program(hydro_workload):
    return hydro_workload.build()


@pytest.fixture(scope="session")
def mdg_dataflow(mdg_program):
    from repro.analysis import ArrayDataFlow
    return ArrayDataFlow(mdg_program)


@pytest.fixture(scope="session")
def hydro_dataflow(hydro_program):
    from repro.analysis import ArrayDataFlow
    return ArrayDataFlow(hydro_program)
