"""Cubic damping of short waves under surface tension.

With gravity off and tension only on the top interface, the decay rate of
a mode grows like the cube of its wavenumber.  The script measures three
rates and prints the log-log slopes; the adaptive stepper's error
controller keeps the stiff high-mode run stable.
"""

import numpy as np

from muskatlab.config import SimConfig, WaveSpec
from muskatlab.evolution import fit_mode_rate, mode_amplitude, simulate
from muskatlab.operators import FluidParams

params = FluidParams(g=0.0, gamma_f=0.0, gamma_h=1.0)

rates = {}
for m in (2, 4, 8):
    t_end = 1.3 * np.tanh(2 * m) / m**3
    cfg = SimConfig(n_x=32, n_y=24, params=params,
                    h0=WaveSpec(const=1.0, modes=((m, 0.0, 1e-4),)),
                    b=WaveSpec(const=0.0), t_end=t_end, rtol=1e-7, atol=1e-13,
                    dt_init=t_end / 100, dt_max=t_end / 10, surface_tension=True)
    traj = simulate(cfg)
    amps = [mode_amplitude(h, m) for h in traj.h_values]
    rate, r2 = fit_mode_rate(traj.times, amps)
    rates[m] = -rate
    print(f"mode {m}: decay rate {-rate:10.3f}  (steps {len(traj.times) - 1}, "
          f"R^2 {r2:.6f})")

print(f"\nlog-log slope m=2 -> 4: {np.log2(rates[4] / rates[2]):.3f}")
print(f"log-log slope m=4 -> 8: {np.log2(rates[8] / rates[4]):.3f}")
print("cubic reference slope: 3.0")
