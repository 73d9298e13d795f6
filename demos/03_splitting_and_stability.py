"""The three-level split scheme, its certificate, and a cautionary tale.

Three short experiments on small dense systems:

1. with a single block the scheme collapses to backward Euler exactly;
2. a certified two-block split keeps its energy falling even at a huge
   step size;
3. the certificate draws the line where the energy argument does: one
   block with stiffness weight 0.3 fails it and diverges once the step is
   large, while weight 0.6 passes and contracts for any step.
"""

import numpy as np

from msplit import splitting
from msplit.linalg import NumericalError
from msplit.splitting import CoarseSystem, SplitConfig


def make_cs(cmat, bmat, sizes, z0):
    return CoarseSystem(
        block_sizes=tuple(int(s) for s in sizes), mass=cmat, stiff=bmat,
        load=np.zeros(sum(sizes)), z0=np.asarray(z0, dtype=float))


def main():
    rng = np.random.default_rng(3)
    low = rng.standard_normal((6, 6))
    cmat = np.eye(6) + low @ low.T
    low = rng.standard_normal((6, 6))
    bmat = np.eye(6) + low @ low.T
    z0 = rng.standard_normal(6)

    print("1. one block is backward Euler")
    cs = make_cs(cmat, bmat, (6,), z0)
    parts = splitting.make_split(cs)
    config = SplitConfig(tau=0.05, t_final=1.0)
    traj = splitting.march(cs, parts, config)
    ref = splitting.backward_euler(cs, 0.05, 1.0)
    dev = np.abs(traj.states - ref.states).max()
    print(f"   max deviation over {traj.n_steps} steps: {dev:.2e}")
    print()

    print("2. certified two-block split at step size 100")
    cs = make_cs(cmat, bmat, (3, 3), z0)
    parts = splitting.make_split(cs)
    config = SplitConfig(tau=100.0, t_final=100.0 * 2000,
                         theta_mass=1.2, theta_stiff=1.2)
    cert = splitting.check_stability(parts, config.theta_mass,
                                     config.theta_stiff)
    print(f"   {cert.describe()}")
    traj = splitting.march(cs, parts, config)
    rise = np.diff(traj.energy).max()
    print(f"   energy {traj.energy[1]:.3e} -> {traj.energy[-1]:.3e} "
          f"over {traj.n_steps} steps, largest single-step rise {rise:.2e}")
    print()

    print("3. the certificate refuses weights that diverge for large steps")
    cs = make_cs(np.eye(1), np.eye(1), (1,), np.array([1.0]))
    parts = splitting.make_split(cs)
    for theta_stiff in (0.3, 0.6):
        config = SplitConfig(tau=1e3, t_final=1e3 * 2000,
                             theta_mass=0.6, theta_stiff=theta_stiff)
        cert = splitting.check_stability(parts, 0.6, theta_stiff)
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                traj = splitting.march(cs, parts, config)
            outcome = (f"state decays to {abs(traj.states[-1, 0]):.1e}, "
                       f"energy ends at {traj.energy[-1]:.1e}")
        except NumericalError as exc:
            outcome = f"diverges ({exc})"
        print(f"   weights (0.6, {theta_stiff}): certificate "
              f"{'pass' if cert.passed else 'FAIL'}; {outcome}")
    print()
    print("   with p blocks, weights of at least p/2 pass for any split")


if __name__ == "__main__":
    main()
