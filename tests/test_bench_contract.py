"""The traced benchmark still fits the package.

perfbench/spans.py replaces named muskatlab functions with span-recording
wrappers; renaming one of them would break the traced benchmark without
failing any other test.  Here the tracer is installed, a small per-mode
linearization, a short simulation, a Rayleigh-Taylor check, and a frozen
point with a closed-form symbol and its oracle run under it, and every
layer they pass through must have recorded spans, with one condition
estimate per factorization.
"""

import importlib.util
from pathlib import Path

import muskatlab
from muskatlab.config import SimConfig, WaveSpec
from muskatlab.geometry import InterfacePair, constant_fn, make_grid
from muskatlab.operators import FluidParams

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"

LAYERS = {
    "geometry.spectral_derivative", "geometry.check_admissible",
    "operators.coeffs", "operators.boundary", "operators.apply",
    "diffraction.solve", "diffraction.factor", "diffraction.condest",
    "evolution.simulate", "evolution.step", "evolution.phi", "evolution.rt",
    "evolution.linearized",
    "symbols.frozen", "symbols.formula", "symbols.oracle",
}


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_records_spans():
    original_simulate = muskatlab.evolution.simulate
    tracer = load_spans().Tracer()
    tracer.install()  # looks up every wrapped name, so a renamed one raises here
    try:
        g = make_grid(16)
        flat = InterfacePair(constant_fn(g, 0.0), constant_fn(g, 1.0), -1.0)
        mats = muskatlab.linearized_matrix(flat, constant_fn(g, 1.0), FluidParams(), [1, 2],
                                           n_y=8)
        traj = muskatlab.simulate(SimConfig(
            n_x=16, n_y=8, params=FluidParams(), f0=WaveSpec(modes=((1, 0.05, 0.0),)),
            b=WaveSpec(const=1.0), t_end=0.1, dt_init=0.05))
        report = muskatlab.rayleigh_taylor(flat, constant_fn(g, 1.0), FluidParams(), n_y=8)
        fp = muskatlab.frozen_constants(
            muskatlab.solve_potentials(flat, constant_fn(g, 0.0), FluidParams(), n_y=8), 0.5)
        formula = muskatlab.phi_symbol(fp, 2, 0.0)
        oracle = muskatlab.ode_oracle_phi(fp, 2, 0.0).symbol_value
    finally:
        tracer.uninstall()
    assert muskatlab.evolution.simulate is original_simulate
    assert mats.shape == (2, 2, 2)
    assert traj.reason == "t_end"
    assert report.satisfied
    assert abs(formula - oracle) < 1e-12
    assert LAYERS <= {span["name"] for span in tracer.spans}
    assert all(span["error"] is None for span in tracer.spans)
    # the guard is traced only through diffraction.spla: every factorization
    # is followed by its condition estimate
    names = [span["name"] for span in tracer.spans]
    assert names.count("diffraction.condest") == names.count("diffraction.factor") > 0
