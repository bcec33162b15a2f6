"""Process footprint: what the solver imports and what its estimates fault
in.

``scipy.stats`` (the sampler's KS check) and ``scipy.integrate`` (iterated
integral quadrature) cost more to import than a point-deep estimate costs to
run, so they are imported inside the two functions that use them, and the
solver loads ``scipy.special`` and no other public scipy subpackage.

Under glibc, a warm point-deep estimate reuses heap memory for its block
arrays instead of mapping and faulting in fresh pages for each block.

Both checks run in a fresh interpreter, because the test process has
loaded other scipy subpackages already and may have raised glibc's mmap
threshold already.
"""

import platform
import subprocess
import sys
import textwrap

import pytest

SCRIPT = textwrap.dedent("""
    import os
    import sys
    import tempfile

    import numpy as np

    from mlpicard import (
        ErrorBoundInput,
        MlpConfig,
        RegularityData,
        builtin_case,
        cost_rv,
        error_bound,
        evaluate,
        run_convergence,
    )
    from mlpicard import cli, engine

    def scipy_subpackages():
        names = {m.split(".")[1] for m in sys.modules
                 if m.startswith("scipy.")}
        return {"scipy." + name for name in names
                if not name.startswith("_")
                and name not in ("version", "__config__")}

    case = builtin_case("grad-dependent-sine", dimension=2)
    config = MlpConfig(depth=5, base=5)
    assert cost_rv(2, 5, 5) >= engine.FANOUT_MIN_DRAWS
    evaluate(case.problem, config, 0.0, np.zeros(2))
    run_convergence(case, [(1, 1)], replications=2)
    reg = RegularityData(l0=0.75, l=(0.1,) * 2, frak_l=(0.05,) * 2,
                         k=(0.25,) * 2, g_moment=1.0, f0_moment=0.5, q=4.0)
    error_bound(ErrorBoundInput(p=4.0, alpha=0.5, n=3, base=3,
                                horizon=1.0, t=0.25, reg=reg))
    with tempfile.TemporaryDirectory() as tmp:
        for argv in (
            ["solve", "--case", "grad-dependent-sine", "--n", "1",
             "--M", "1", "--reps", "2"],
            ["converge", "--case", "grad-dependent-sine", "--n-max", "1",
             "--reps", "2", "--out", os.path.join(tmp, "table.csv")],
            ["cost", "--d", "2", "--n", "2", "--M", "2"],
            ["schedule", "--case", "grad-dependent-sine", "--eps", "20"],
        ):
            assert cli.main(argv) == 0, argv
    assert scipy_subpackages() == {"scipy.special"}, scipy_subpackages()

    # The deferred imports still work where they are needed.
    from mlpicard.harness import check_sampler_laws
    from mlpicard.integrals import (
        IteratedIntegralSpec,
        iterated_integral_quadrature,
    )
    check_sampler_laws(ks_samples=200, moment_samples=200, ks_path=(1,))
    iterated_integral_quadrature(IteratedIntegralSpec(
        j=2, alpha=0.5, beta=0.5, gamma=1.0, horizon=1.0))
    assert {"scipy.stats", "scipy.integrate"} <= scipy_subpackages()
    print("ok")
""")


def test_solver_loads_only_scipy_special():
    # The child inherits this process's environment, PYTHONPATH included.
    done = subprocess.run([sys.executable, "-c", SCRIPT],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "ok"


FAULTS = textwrap.dedent("""
    import resource

    import numpy as np

    from mlpicard import MlpConfig, builtin_case, evaluate

    problem = builtin_case("grad-dependent-sine", dimension=10).problem
    x = np.linspace(-0.4, 0.6, 10)

    def estimates(seeds):
        for seed in seeds:
            evaluate(problem, MlpConfig(depth=5, base=5, root_seed=seed),
                     0.25, x)

    estimates(range(3))
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    estimates(range(3, 8))
    print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 5)
""")


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="the mmap threshold is glibc's")
def test_warm_point_deep_estimates_fault_in_no_block_arrays():
    # Without the engine's allocator warm-up, every block array of 128 KiB
    # or more is mapped, faulted in and unmapped again: about 7,500 minor
    # faults per point-deep estimate (d = 10, n = M = 5).
    done = subprocess.run([sys.executable, "-c", FAULTS],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert float(done.stdout) < 100
