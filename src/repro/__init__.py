"""repro: a full-stack reproduction of LetGo (HPDC 2017).

LetGo continues HPC applications past crash-causing hardware errors
instead of rolling back to a checkpoint: it intercepts the crash signal,
advances the program counter, heuristically repairs register state, and
relies on application-level acceptance checks to vouch for the result.

This package reproduces the complete system on a self-contained substrate:

``repro.isa`` / ``repro.machine``
    a 64-bit register ISA with x86-style stack discipline, protected
    memory, POSIX-style crash signals and a gdb-like debugger;
``repro.analysis``
    static function/frame analysis and dynamic profiling (the PIN role);
``repro.lang``
    the MiniC compiler the benchmark suite is built with;
``repro.core``
    LetGo itself -- monitor, modifier, Heuristics I/II, LetGo-B/E;
``repro.apps``
    six mini-app analogues (LULESH, CLAMR, HPL, CoMD, SNAP, PENNANT)
    with the paper's Table-2 acceptance checks;
``repro.faultinject``
    the single-bit-flip injection methodology and Figure-4 taxonomy;
``repro.crsim``
    the Figure-6 checkpoint/restart state-machine simulation.

Quickstart::

    from repro.apps import make_app
    from repro.core import LETGO_E
    from repro.faultinject import run_campaign

    app = make_app("lulesh")
    campaign = run_campaign(app, n=100, seed=0, config=LETGO_E)
    print(campaign.metrics().continuability)
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
