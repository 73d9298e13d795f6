"""The offline stage on the heterogeneous benchmark configuration.

Builds the 16 x 16 coarse grid with 16-fold refinement and the periodic
permeability, runs the spectral stage for ten and for six modes per node,
and shows what the local eigenvalue decay looks like and how mode count
translates into coarse problem size. Takes a few seconds.
"""

import time

import numpy as np

from msplit import driver, gmsfem


def main():
    config = driver.ExperimentConfig()
    fs = driver.build_problem(config)
    print(f"fine dofs: {fs.n_dof}")

    tic = time.perf_counter()
    modes = gmsfem.offline_modes(fs, 10)
    print(f"offline stage (10 modes per node): "
          f"{time.perf_counter() - tic:.1f} s for {len(modes)} neighborhoods")
    print()

    lam = np.array([m.eigenvalues for m in modes])
    print("local eigenvalue decay across neighborhoods (columns are modes):")
    print("  mode      " + " ".join(f"{k:>9d}" for k in range(10)))
    print("  median    " + " ".join(f"{v:9.2e}" for v in np.median(lam, axis=0)))
    print("  max       " + " ".join(f"{v:9.2e}" for v in lam.max(axis=0)))
    print()

    # a basis keeps every mode it is built from, so six modes per node is
    # a stage of its own, as `msplit run` builds it
    for basis, blocks in ((gmsfem.build_offline(fs, 6), (1, 5)),
                          (gmsfem.assemble_basis(fs, modes), (1, 9))):
        prol = gmsfem.assemble_prolongation(basis, blocks)
        print(f"{basis.n_modes} modes per node -> coarse dofs {prol.n_columns} "
              f"(blocks {'+'.join(str(b) for b in blocks)}, "
              f"sizes {prol.block_sizes})")
    print()
    print("the first block holds the lowest mode of every node; adding a")
    print("mode adds one column per interior coarse node, so the coarse")
    print("problem grows linearly while the fine grid stays fixed")


if __name__ == "__main__":
    main()
