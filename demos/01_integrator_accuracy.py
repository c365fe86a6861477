"""Tour of the splitting-integrator algebra.

Walks through the named schemes, their harmonic-oscillator propagators,
stability intervals, closed-form energy errors, the three-stage error bound
with its interior maximum at h = 2.0772, and the step-size adaptive
coefficient map.  Everything prints as small tables; pipe to a file if you
want plot data (or use `ghmctune analyze-integrators` for CSV output).
"""

import numpy as np

from ghmctune.integrators import (
    B_BCSS3,
    SCHEME_NAMES,
    build_scheme,
    energy_error_one_step,
    expected_energy_error_vv,
    find_h_lower,
    harmonic_propagator,
    rho3,
    rotation_angle,
    stability_interval,
    vv_ratio_roots,
)
from ghmctune.saia import default_map

print("=== named schemes ===")
print(f"{'scheme':>7} {'stages':>6} {'b1':>12} {'a1':>12} {'stability':>10}")
for name in SCHEME_NAMES:
    s = build_scheme(name)
    h_max = stability_interval(s)[1]
    print(f"{name:>7} {s.stages:>6} {s.b1:>12.8f} {s.a1:>12.8f} {h_max:>10.4f}")

print("\n=== one-step expected energy error on the unit oscillator ===")
print("(B_h + C_h)^2 / 2; the k-stage Verlet values also have closed forms")
hs = [0.5, 1.0, 1.5, 2.0, 2.5]
header = f"{'h':>5}" + "".join(f"{n:>12}" for n in ("vv", "vv2", "vv3", "bcss3", "me3"))
print(header)
for h in hs:
    row = f"{h:>5.2f}"
    for name in ("vv", "vv2", "vv3", "bcss3", "me3"):
        s = build_scheme(name)
        if h < stability_interval(s)[1]:
            row += f"{energy_error_one_step(s, h):>12.3e}"
        else:
            row += f"{'--':>12}"
    print(row)

print("\nclosed form check (one-stage Verlet): E(h) = h^6/32")
for h in (0.5, 1.0, 1.9):
    s = build_scheme("vv")
    print(f"  h={h}: closed={expected_energy_error_vv(1, h):.6e}  "
          f"propagator={energy_error_one_step(s, h):.6e}")

print("\n=== the three-stage bound rho3 and its interior maximum ===")
h_lower = find_h_lower()
print(f"local maximum of rho3(., b_BCSS3): h = {h_lower:.6f}")
print("rho3 along h at the BCSS3 coefficient:")
for h in (1.0, 1.5, 2.0, h_lower, 2.4, 2.8):
    print(f"  h={h:6.4f}  rho3={rho3(h, B_BCSS3):.6e}")
print("this maximum is the lower endpoint of the production step interval"
      f" (h_lower, 3) = ({h_lower:.4f}, 3)")

print("\n=== step sizes where k-stage Verlet matches 1-stage accuracy ===")
print("roots of E_k(k h') = E_1(h'):")
print(f"  k=2: {[round(r, 6) for r in vv_ratio_roots(2)]}")
print(f"  k=3: {[round(r, 6) for r in vv_ratio_roots(3)]}  "
      f"(3 x smallest = {3 * vv_ratio_roots(3)[0]:.4f})")

print("\n=== adaptive three-stage coefficients ===")
saia = default_map()
print(f"{'h':>7} {'b_opt':>12} {'a_opt':>12} {'eta_h':>10}")
for h in (0.5, 1.0, 2.0, h_lower, 2.5386, 3.0):
    b, a = saia.coefficients(h)
    eta = rotation_angle(saia.scheme_at(h), h)
    print(f"{h:>7.4f} {b:>12.8f} {a:>12.8f} {eta:>10.6f}")
print("small h tends to the minimum truncation-error scheme (ME3); "
      "h = 3 reproduces BCSS3")

print("\npropagator determinant sanity (symplecticity):")
dets = [abs(harmonic_propagator(saia.scheme_at(h), h).determinant - 1.0)
        for h in np.linspace(0.1, 4.0, 20)]
print(f"  max |det - 1| over the map span: {max(dets):.2e}")
