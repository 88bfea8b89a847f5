"""Bring your own application: write MiniC, define an acceptance check,
measure LetGo on it.

The example app is a Jacobi solver for a 1-D Poisson problem -- an
iterative, convergent kernel of exactly the class the paper argues
benefits from crash elision.  Its acceptance check verifies the residual
of the linear system, HPL-style.

Run:  python examples/custom_app.py
"""

from math import isfinite

from repro.apps.base import MiniApp, Output
from repro.core import LETGO_E
from repro.faultinject import CampaignEngine, Outcome
from repro.reporting import ascii_table, pct

N = 16

SOURCE = f"""
// Jacobi iteration for -u'' = 1 on a 1-D grid, u(0)=u(1)=0.
global int n = {N};
global float u[{N}];
global float unew[{N}];
global float rhs[{N}];
global float h2 = 0.0;
global int maxit = 4000;

func residual_norm() -> float {{
    var int i;
    var float worst = 0.0;
    for (i = 1; i < n - 1; i = i + 1) {{
        var float r = rhs[i] * h2 - (2.0 * u[i] - u[i - 1] - u[i + 1]);
        worst = fmax(worst, fabs(r));
    }}
    return worst;
}}

func main() -> int {{
    var int i;
    var float h = 1.0 / float(n - 1);
    h2 = h * h;
    for (i = 0; i < n; i = i + 1) {{
        u[i] = 0.0;
        rhs[i] = 1.0;
    }}
    var int iter = 0;
    var float res = 1.0;
    while (res > 1.0e-9 && iter < maxit) {{
        for (i = 1; i < n - 1; i = i + 1) {{
            unew[i] = 0.5 * (u[i - 1] + u[i + 1] + rhs[i] * h2);
        }}
        for (i = 1; i < n - 1; i = i + 1) {{ u[i] = unew[i]; }}
        res = residual_norm();
        iter = iter + 1;
    }}
    out(iter);
    out(res);
    for (i = 0; i < n; i = i + 1) {{ out(u[i]); }}
    return 0;
}}
"""


class Jacobi(MiniApp):
    """User-defined app: iterative Poisson solve with a residual check."""

    name = "jacobi"
    domain = "Iterative elliptic solver"

    @property
    def source(self) -> str:
        return SOURCE

    def acceptance_check(self, output: Output) -> bool:
        if len(output) != 2 + N:
            return False
        if output[0][0] != "i" or any(k != "f" for k, _ in output[1:]):
            return False
        iterations, res = output[0][1], output[1][1]
        solution = [v for _, v in output[2:]]
        if not (0 < iterations < 4000):
            return False
        if not (isfinite(res) and res <= 1.0e-9):
            return False
        # physical sanity: solution positive in the interior, zero at walls
        if solution[0] != 0.0 or solution[-1] != 0.0:
            return False
        return all(isfinite(v) and 0.0 <= v < 1.0 for v in solution)

    def sdc_slice(self, output: Output) -> tuple:
        return tuple(v for _, v in output[2:])


def main() -> None:
    app = Jacobi()
    print(f"custom app compiled: {len(app.program.instrs)} static instrs, "
          f"{app.golden.instret:,} dynamic")
    vals = [v for _, v in app.golden.output]
    print(f"converged in {vals[0]} iterations, residual {vals[1]:.2e}")
    assert app.acceptance_check(list(app.golden.output))

    n = 80
    print(f"\ninjecting {n} faults under LetGo-E...")
    campaign = CampaignEngine().run(app, n, seed=3, config=LETGO_E)
    rows = [
        [outcome.value, count, pct(count / n)]
        for outcome, count in sorted(
            campaign.counts.items(), key=lambda kv: -kv[1]
        )
    ]
    print(ascii_table(["outcome", "runs", "fraction"], rows))
    m = campaign.metrics()
    if m.crash_count:
        print(f"\ncontinuability: {m.continuability}")
        print(f"continued_correct: {m.continued_correct}")
    sdc = campaign.counts.get(Outcome.C_SDC, 0) + campaign.counts.get(Outcome.SDC, 0)
    print(f"total silent corruptions: {sdc}/{n}")


if __name__ == "__main__":
    main()
