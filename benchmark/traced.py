"""Traced in-process run of one msplit experiment.

run.py starts this script as its own process, with the checkout's `src/`
first on the path. It wraps the public functions of each msplit module
with timing spans, runs the `msplit run` command line in-process, and
prints `trace: run finished` so the parent can stamp the traced total. It
then repeats the offline stage neighbourhood by neighbourhood for its
breakdown, and writes every number as JSON.

    python3 benchmark/traced.py CONFIG OUTPUT_DIR RESULT_JSON
    python3 benchmark/traced.py --offline-only CONFIG RESULT_JSON

`--offline-only` runs the `msplit offline` command line and times its
`gmsfem.offline_modes` call; run.py starts it with OPENBLAS_NUM_THREADS=1
for the single-threaded baseline.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

from msplit import cli, driver, gmsfem, grid, linalg, splitting  # noqa: E402

import envinfo  # noqa: E402

FINISHED = "trace: run finished"
# Kept eigenvalues of the breakdown must match offline_modes' to this share
# of the node's largest kept eigenvalue; both run the same arithmetic.
EIG_RTOL = 1e-8


class Tracer:
    """Spans around calls into msplit, kept in memory until the run ends."""

    def __init__(self):
        self.spans = []       # [name, start, end, parent index or None]
        self._stack = []
        self.last = {}        # name -> (args, result) of the latest call
        self.rhs_seconds = 0.0
        self.rhs_calls = 0

    def wrap(self, owner, attr: str, name: str, after=None) -> None:
        func = getattr(owner, attr)

        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            self.spans.append([name, time.perf_counter(), None, parent])
            self._stack.append(index)
            try:
                result = func(*args, **kwargs)
            finally:
                self._stack.pop()
                self.spans[index][2] = time.perf_counter()
            if after is not None:
                after(result)
            self.last[name] = (args, result)
            return result

        setattr(owner, attr, traced)

    def count_rhs(self, cs) -> None:
        """Time and count every call of the projected forcing `cs.rhs`."""
        rhs = cs.rhs

        def counted(t):
            tic = time.perf_counter()
            try:
                return rhs(t)
            finally:
                self.rhs_seconds += time.perf_counter() - tic
                self.rhs_calls += 1

        cs.rhs = counted

    def seconds(self, name: str) -> float:
        return sum(end - start for n, start, end, _ in self.spans if n == name)

    def top_level_seconds(self) -> float:
        return sum(end - start for _, start, end, parent in self.spans
                   if parent is None)


def install(tracer: Tracer) -> None:
    """Wrap the public entry points `driver.run_example` goes through."""
    tracer.wrap(driver, "build_problem", "fineassembly.build_problem")
    for attr in ("offline_modes", "assemble_basis", "assemble_prolongation"):
        tracer.wrap(gmsfem, attr, f"gmsfem.{attr}")
    tracer.wrap(gmsfem, "project_coarse", "gmsfem.project_coarse",
                after=tracer.count_rhs)
    for attr in ("make_split", "check_stability", "backward_euler", "march"):
        tracer.wrap(splitting, attr, f"splitting.{attr}")
    tracer.wrap(driver, "compare", "driver.compare")


def _us(values, q: float) -> float:
    ordered = sorted(values)
    return 1e6 * ordered[min(int(q * len(ordered)), len(ordered) - 1)]


def step_bytes(parts) -> int:
    """Bytes of dense operators one split step reads, computed from sizes.

    Counts what the step operator reads: two explicit matvecs (n^2 each),
    the two triangular solves with each diagonal block's Cholesky factor
    (b^2 in all), and the strictly lower blocks of the lower-triangular
    variant. The forcing call timed in the same step is not counted.
    """
    sizes = parts.block_sizes
    n = sum(sizes)
    doubles = 2 * n * n + sum(b * b for b in sizes)
    if parts.variant == "lower-triangular":
        doubles += sum(sizes[q] * sizes[r] for q in range(len(sizes))
                       for r in range(q))
    return 8 * doubles


def offline_breakdown(fs, n_modes: int, reference: list) -> dict:
    """Per-neighbourhood calls of the offline stage, timed and checked.

    Builds the snapshots with one shared solver cache (cell factorizations
    are made lazily, so they count in build_snapshots), the spectral pencil
    and its eigenpairs for every interior coarse node, and compares the kept
    eigenvalues with those `offline_modes` returned.
    """
    g = fs.grid
    weight = gmsfem.spectral_mass_weight(g, fs.kappa_cells)
    cache = {}
    snap_s = spec_s = eig_s = 0.0
    worst = 0.0
    for ref in reference:
        nb = grid.neighborhood(g, ref.node)
        t0 = time.perf_counter()
        snaps = gmsfem.build_snapshots(fs, nb, cache)
        t1 = time.perf_counter()
        astiff, smass = gmsfem.spectral_matrices(fs, nb, snaps, weight)
        t2 = time.perf_counter()
        eig = linalg.eig_gsym(astiff, smass, context=f"neighbourhood {ref.node}")
        t3 = time.perf_counter()
        snap_s += t1 - t0
        spec_s += t2 - t1
        eig_s += t3 - t2
        kept = eig.values[:n_modes]
        scale = max(abs(float(v)) for v in ref.eigenvalues)
        gap = max(abs(float(a) - float(b)) for a, b in zip(kept, ref.eigenvalues))
        worst = max(worst, gap / scale if scale > 0.0 else gap)
    return {"gmsfem.build_snapshots_s": snap_s,
            "gmsfem.spectral_matrices_s": spec_s,
            "linalg.eig_gsym_s": eig_s,
            "gmsfem.neighbourhoods": len(reference),
            "gmsfem.breakdown_eig_rel_gap": worst,
            "breakdown_ok": worst <= EIG_RTOL}


def traced_run(config_arg: str, output_dir: str):
    """Result of one traced `msplit run`, or its exit code if it failed."""
    tracer = Tracer()
    install(tracer)
    code = cli.main(["run", config_arg, "--output", output_dir])
    if code != 0:
        return code
    print(FINISHED, flush=True)

    (fs, n_modes), modes = tracer.last["gmsfem.offline_modes"]
    (_, parts, _), split = tracer.last["splitting.march"]
    cs = tracer.last["gmsfem.project_coarse"][1]
    cert = tracer.last["splitting.check_stability"][1]
    reference = tracer.last["splitting.backward_euler"][1]
    kept = [[float(v) for v in m.eigenvalues] for m in modes]
    mass = cs.mass
    metrics = {
        "fineassembly.fine_dofs": fs.n_dof,
        "gmsfem.coarse_dofs": cs.dim,
        "gmsfem.coarse_density": int((mass != 0.0).sum()) / mass.size,
        "gmsfem.coarse_rhs_s": tracer.rhs_seconds,
        "gmsfem.coarse_rhs_calls": tracer.rhs_calls,
        "splitting.steps": split.n_steps,
        "splitting.be_step_us_p50": _us(reference.step_seconds, 0.5),
        "splitting.step_us_p50": _us(split.step_seconds, 0.5),
        "splitting.step_us_p99": _us(split.step_seconds, 0.99),
        "splitting.step_bytes_computed": step_bytes(parts),
        "splitting.cert_mass_margin": cert.mass_margin,
        "splitting.cert_stiff_margin": cert.stiff_margin,
        "splitting.cert_passed": int(cert.passed),
        "gmsfem.eig_min": min(min(node) for node in kept),
        "gmsfem.eig_max": max(max(node) for node in kept),
    }
    if split.bound_margin is not None:   # None when the certificate fails
        metrics["splitting.bound_margin"] = split.bound_margin
    for name in ("fineassembly.build_problem", "gmsfem.offline_modes",
                 "gmsfem.assemble_basis", "gmsfem.assemble_prolongation",
                 "gmsfem.project_coarse", "splitting.make_split",
                 "splitting.check_stability", "splitting.backward_euler",
                 "splitting.march", "driver.compare"):
        metrics[f"{name}_s"] = tracer.seconds(name)
    metrics.update(offline_breakdown(fs, n_modes, modes))
    return {"metrics": metrics,
            "top_level_s": tracer.top_level_seconds(),
            "spans": len(tracer.spans),
            "eigenvalues": kept}


def offline_only(config_arg: str):
    """Time of the offline stage in one `msplit offline`, or its exit code."""
    tracer = Tracer()
    tracer.wrap(gmsfem, "offline_modes", "gmsfem.offline_modes")
    code = cli.main(["offline", config_arg])
    if code != 0:
        return code
    modes = tracer.last["gmsfem.offline_modes"][1]
    return {"seconds": tracer.seconds("gmsfem.offline_modes"),
            "eigenvalues": [[float(v) for v in m.eigenvalues] for m in modes],
            "openblas": envinfo.openblas()}


def main(argv) -> int:
    if argv[:1] == ["--offline-only"] and len(argv) == 3:
        result = offline_only(argv[1])
        path = argv[2]
    elif len(argv) == 3:
        result = traced_run(argv[0], argv[1])
        path = argv[2]
    else:
        print(__doc__, file=sys.stderr)
        return 2
    if isinstance(result, int):
        return result
    with open(path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
