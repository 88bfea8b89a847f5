"""Parallel (SPMD) applications and the flagship heat-diffusion proxy.

The paper's "towards large-scale application" discussion asks how LetGo
integrates with MPI-style programs; this module supplies the workload: a
domain-decomposed explicit heat equation with halo exchange each step and
a tree-free reduction to rank 0, conserving total heat exactly (flux
form + reflective walls) -- so the acceptance check is again a
conservation law, now a *global* one across ranks.
"""

from __future__ import annotations

from functools import cached_property
from math import isfinite

from repro.apps.base import MiniApp, hang_budget, pack_output
from repro.errors import SimulationError
from repro.isa.program import Program
from repro.lang.compiler import CompiledUnit, compile_unit
from repro.machine.cluster import Cluster

RankOutputs = list[list[tuple[str, int | float]]]

# Cluster golden runs are deterministic in (source, size); share them
# across instances like MiniApp does.
_UNIT_CACHE: dict[str, CompiledUnit] = {}
_GOLDEN_CACHE: dict[tuple[str, int], tuple] = {}


class ParallelApp:
    """Base for SPMD benchmark applications.

    Like :class:`repro.apps.base.MiniApp`, but golden facts come from a
    cluster run and checks see the per-rank output streams.
    """

    name: str = ""
    domain: str = ""
    size: int = 4
    sdc_digits: int = 9

    @property
    def source(self) -> str:
        raise NotImplementedError

    @cached_property
    def unit(self) -> CompiledUnit:
        source = self.source
        unit = _UNIT_CACHE.get(source)
        if unit is None:
            unit = compile_unit(source, name=self.name)
            _UNIT_CACHE[source] = unit
        return unit

    @property
    def program(self) -> Program:
        return self.unit.program

    def make_cluster(self) -> Cluster:
        """A fresh cluster for one run."""
        return Cluster(self.program, self.size)

    @cached_property
    def golden(self) -> tuple[RankOutputs, int]:
        """(per-rank outputs, total instructions) of a fault-free run."""
        key = (self.source, self.size)
        cached = _GOLDEN_CACHE.get(key)
        if cached is not None:
            return cached
        cluster = self.make_cluster()
        event = cluster.run(500_000_000)
        if event.kind != "exited":
            raise SimulationError(
                f"golden cluster run ended with {event.kind}: {event}"
            )
        result = (cluster.outputs(), cluster.total_steps())
        _GOLDEN_CACHE[key] = result
        return result

    @property
    def golden_outputs(self) -> RankOutputs:
        return self.golden[0]

    @property
    def golden_steps(self) -> int:
        return self.golden[1]

    @property
    def max_steps(self) -> int:
        return hang_budget(self.golden_steps)

    @cached_property
    def functions(self):
        from repro.analysis.functions import FunctionTable

        return FunctionTable(self.program)

    # -- checks ------------------------------------------------------------

    def acceptance_check(self, outputs: RankOutputs) -> bool:
        raise NotImplementedError

    def sdc_slice(self, outputs: RankOutputs) -> tuple:
        raise NotImplementedError

    def matches_golden(self, outputs: RankOutputs) -> bool:
        try:
            candidate = self.sdc_slice(outputs)
        except (IndexError, TypeError, ValueError):
            return False
        reference = self.sdc_slice(self.golden_outputs)
        return pack_output(candidate, self.sdc_digits) == pack_output(
            reference, self.sdc_digits
        )


class OneRankApp:
    """A single-process :class:`MiniApp` as a one-rank cluster job.

    Lets the coordinated C/R driver run the paper's Figure-1 scenario on
    any MiniApp.  Golden facts come from the MiniApp's own golden run;
    checks see rank 0's output stream.
    """

    size = 1

    def __init__(self, app: MiniApp):
        self.app = app
        self.program = app.program
        self.functions = app.functions
        self.golden_steps = app.golden.instret
        self.max_steps = app.max_steps

    def make_cluster(self) -> Cluster:
        return Cluster(self.program, 1)

    def acceptance_check(self, outputs: RankOutputs) -> bool:
        return self.app.acceptance_check(outputs[0])

    def matches_golden(self, outputs: RankOutputs) -> bool:
        return self.app.matches_golden(outputs[0])


#: Cells owned by each rank and time steps for the heat proxy.
N_LOCAL = 12
N_STEPS = 40


def _heat_source(n_local: int, n_steps: int) -> str:
    return f"""
// SPMD heat diffusion: halo exchange + global conservation check.
global int nloc = {n_local};
global int nsteps = {n_steps};
global float u[{n_local + 2}];      // [0] and [nloc+1] are ghosts
global float unew[{n_local + 2}];
global float alpha = 0.25;

func partial_sum() -> float {{
    var int i;
    var float s = 0.0;
    for (i = 1; i <= nloc; i = i + 1) {{ s = s + u[i]; }}
    return s;
}}

// reduce partial sums to rank 0 (returns the total there, 0 elsewhere)
func reduce_total() -> float {{
    var int me = myrank();
    var int np = nranks();
    var float s = partial_sum();
    if (me == 0) {{
        var int k;
        for (k = 1; k < np; k = k + 1) {{ s = s + recvf(k); }}
        return s;
    }}
    sendf(0, s);
    return 0.0;
}}

func main() -> int {{
    var int me = myrank();
    var int np = nranks();
    var int i;
    // deterministic initial profile: a hump centred in the global domain
    var float gtotal = float(np * nloc);
    for (i = 1; i <= nloc; i = i + 1) {{
        var float g = float(me * nloc + i - 1);
        var float x = (g + 0.5) / gtotal;           // in (0, 1)
        u[i] = 1.0 + fmax(0.0, 1.0 - 4.0 * fabs(x - 0.5));
    }}
    var float total0 = reduce_total();
    if (me == 0) {{ out(total0); }}

    var int step;
    for (step = 0; step < nsteps; step = step + 1) {{
        // halo exchange (async sends first: deadlock-free)
        if (me > 0) {{ sendf(me - 1, u[1]); }}
        if (me < np - 1) {{ sendf(me + 1, u[nloc]); }}
        if (me > 0) {{ u[0] = recvf(me - 1); }} else {{ u[0] = u[1]; }}
        if (me < np - 1) {{
            u[nloc + 1] = recvf(me + 1);
        }} else {{
            u[nloc + 1] = u[nloc];
        }}
        for (i = 1; i <= nloc; i = i + 1) {{
            unew[i] = u[i] + alpha * (u[i - 1] - 2.0 * u[i] + u[i + 1]);
        }}
        for (i = 1; i <= nloc; i = i + 1) {{ u[i] = unew[i]; }}
    }}

    var float totalf = reduce_total();
    if (me == 0) {{
        out(totalf);
        out(nsteps);
    }}
    for (i = 1; i <= nloc; i = i + 1) {{ out(u[i]); }}
    return 0;
}}
"""


class HeatApp(ParallelApp):
    """Domain-decomposed heat diffusion with a global conservation check."""

    name = "heat"
    domain = "SPMD stencil (heat equation)"

    #: Conservation tolerance, relative to the initial total.
    TOTAL_RTOL = 1e-9

    def __init__(self, size: int = 4, n_local: int = N_LOCAL, n_steps: int = N_STEPS):
        self.size = size
        self.n_local = n_local
        self.n_steps = n_steps

    @property
    def source(self) -> str:
        return _heat_source(self.n_local, self.n_steps)

    def expected_total(self) -> float:
        """Initial heat, analytically: sum of the deterministic profile."""
        n = self.size * self.n_local
        total = 0.0
        for g in range(n):
            x = (g + 0.5) / n
            total += 1.0 + max(0.0, 1.0 - 4.0 * abs(x - 0.5))
        return total

    def acceptance_check(self, outputs: RankOutputs) -> bool:
        if len(outputs) != self.size:
            return False
        rank0 = outputs[0]
        if len(rank0) != 3 + self.n_local:
            return False
        if [k for k, _ in rank0[:3]] != ["f", "f", "i"]:
            return False
        total0, totalf, steps = (v for _, v in rank0[:3])
        if steps != self.n_steps:
            return False
        if not (isfinite(total0) and isfinite(totalf)):
            return False
        expected = self.expected_total()
        if abs(total0 - expected) > 1e-9 * expected:
            return False
        if abs(totalf - total0) > self.TOTAL_RTOL * expected:
            return False
        for rank, stream in enumerate(outputs):
            cells = stream[3:] if rank == 0 else stream
            if len(cells) != self.n_local:
                return False
            if any(k != "f" for k, _ in cells):
                return False
            if not all(isfinite(v) and 0.0 < v < 3.0 for _, v in cells):
                return False
        return True

    def sdc_slice(self, outputs: RankOutputs) -> tuple:
        # the full temperature field, rank order
        values: list[float] = []
        for rank, stream in enumerate(outputs):
            cells = stream[3:] if rank == 0 else stream
            values.extend(v for _, v in cells)
        return tuple(values)


__all__ = [
    "ParallelApp", "OneRankApp", "HeatApp", "RankOutputs", "N_LOCAL", "N_STEPS",
]
