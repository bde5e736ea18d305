"""The mutant ledger: faults planted in src/ and the tests that must catch them.

    python tests/mutants.py [NAME ...]

Copies src/, tests/, tools/ and pyproject.toml into a temporary directory
and runs the listed tests of every mutant (or of those named) there, first
unmutated, where they must pass.  Then, one mutant at a time, it replaces
the mutant's `old` snippet by `new` in its file, runs its listed tests and
restores the file.  A mutant is caught when each of its listed tests fails;
it survives when any of them passes.  Exit status 1 if a mutant survives or
a listed test fails unmutated, 2 for an unknown name, else 0.

A mutant whose target a refactor removes is replaced by one on the new code
in the same change, never dropped; test_mutants.py checks that every `old`
occurs exactly once and that every listed test exists.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str  # relative to the repository root
    old: str  # occurs exactly once in file
    new: str
    tests: tuple[str, ...]  # pytest node ids without parameters; each must fail


DYNAMICS = "src/polyiter/dynamics.py"
LAB = "src/polyiter/lab.py"
T_DYN = "tests/test_dynamics.py::"
T_LAB = "tests/test_lab.py::"
VERIFY_QUICK = T_LAB + "test_verify_all_quick_is_green"
CURVES = "src/polyiter/curves.py"
T_CURVES = "tests/test_curves.py::"
SLABS = T_CURVES + "test_decomposition_slabs_match_the_full_grid_masks"

MUTANTS = [
    Mutant("first-repeat-limit-off-by-one", DYNAMICS,
           "if len(seen) > limit:", "if len(seen) >= limit:",
           (T_DYN + "test_check_precondition", T_DYN + "test_orbit_matches_hash_oracle")),
    Mutant("first-repeat-tail-one-late", DYNAMICS,
           "return seen[y], len(seen)", "return seen[y] + 1, len(seen)",
           (T_DYN + "test_orbit_examples", T_DYN + "test_orbit_matches_hash_oracle",
            T_DYN + "test_orbit_at_the_modulus_cap")),
    Mutant("orbit-normal-form-without-A", DYNAMICS,
           "A, C = 1, A * C % p", "A, C = 1, C % p",
           (T_DYN + "test_orbit_matches_hash_oracle", T_DYN + "test_orbit_at_the_modulus_cap")),
    Mutant("depth-two-closed-form-chi-sign", DYNAMICS,
           "pow(-f.A * f.C % p, (p - 1) // 2, p)", "pow(f.A * f.C % p, (p - 1) // 2, p)",
           (T_DYN + "test_image_size_matches_pass_loop",
            T_DYN + "test_depth_two_image_at_degree_two_for_every_map_of_each_odd_prime_below_200")),
    Mutant("label-of-C-off-by-one", DYNAMICS,
           "int(rank[f.C])", "int(rank[f.C]) + 1",
           (T_DYN + "test_degree_two_kernels_at_the_block_seams",)),
    Mutant("tail-sum-without-dist-c", DYNAMICS,
           "(f.d - 1) * (int(dist.sum()) - int(dist[c]))", "(f.d - 1) * int(dist.sum())",
           (T_DYN + "test_degree_two_kernels_at_the_block_seams",)),
    Mutant("tail-sum-d-for-d-minus-1", DYNAMICS,
           "tails = (f.d - 1) *", "tails = f.d *",
           (T_DYN + "test_degree_two_kernels_at_the_block_seams",)),
    Mutant("profile-counts-over-values", DYNAMICS,
           "counts = spare[1] if values is spare[0] else spare[0]", "counts = values",
           (T_DYN + "test_profile_between_kernels_on_the_shared_work_arrays",)),
    Mutant("power-table-block-base-one-block-late", DYNAMICS,
           "np.add(arange[: len(low)], start, out=low)",
           "np.add(arange[: len(low)], start + _BLOCK, out=low)",
           (T_DYN + "test_degree_two_kernels_at_the_block_seams",)),
    Mutant("power-table-odd-step-base-one-block-late", DYNAMICS,
           "np.add(arange[: len(low)], start, out=q[: len(low)])",
           "np.add(arange[: len(low)], start + _BLOCK, out=q[: len(low)])",
           (T_DYN + "test_degree_two_kernels_at_the_block_seams",)),
    Mutant("power-table-arange-from-one", DYNAMICS,
           "arange[0] = 0", "arange[0] = 1",
           (T_DYN + "test_power_table_matches_builtin_pow",
            T_DYN + "test_degree_two_kernels_at_the_block_seams")),
    Mutant("graph-stats-one-doubling-round-short", DYNAMICS,
           "for _ in range(m1.bit_length()):", "for _ in range(m1.bit_length() - 1):",
           (T_DYN + "test_graph_stats_single_fixed_point_with_longest_tail",
            T_DYN + "test_graph_stats_at_doubling_boundaries")),
    Mutant("render-bool-raw", "src/polyiter/report.py",
           "_RAW = {int, float, str}", "_RAW = {int, float, str, bool}",
           (T_LAB + "test_render_csv_golden",)),
    Mutant("render-empty-record-braces", "src/polyiter/report.py",
           'if item else f"    {{}}{end}"', 'if item else f"    {{\\n    }}{end}"',
           (T_LAB + "test_render_records_matches_the_per_cell_oracles",)),
    Mutant("curves-gamma-squared", CURVES,
           "gamma = primitive_dth_root(p, f.d)", "gamma = primitive_dth_root(p, f.d) ** 2 % p",
           (T_CURVES + "test_decomposition_matrix",)),
    Mutant("slab-walk-skips-the-last-partial-slab", CURVES,
           "for lo in range(0, n, rows):", "for lo in range(0, max(n - rows + 1, 1), rows):",
           (T_CURVES + "test_decomposition_matrix", SLABS)),
    Mutant("slab-walk-infinity-slices-on-their-first-slab-only", CURVES,
           "for lo in range(0, n, rows):", "for lo in range(0, n if lead == 0 else 1, rows):",
           (SLABS,)),
    Mutant("slab-union-count-reset-at-each-slab", CURVES,
           "union_total += int(np.count_nonzero(union))",
           "union_total = int(np.count_nonzero(union))",
           (SLABS, T_CURVES + "test_cli_curves_and_decomp_bytes_pinned")),
    Mutant("slab-union-reset-at-each-graph", CURVES,
           "union |= grid", "union = grid",
           (T_CURVES + "test_decomposition_matrix", SLABS)),
    Mutant("count-walk-common-from-triple-cover", CURVES,
           "shared = np.flatnonzero(cover > 1)", "shared = np.flatnonzero(cover > 2)",
           (SLABS, T_CURVES + "test_intersection_check",
            T_CURVES + "test_mask_algebra_matches_tuple_sets")),
    Mutant("count-walk-common-against-the-next-graph", CURVES,
           "common += member @ member.T", "common += member @ np.roll(member, 1, axis=0).T",
           (SLABS, T_CURVES + "test_mask_algebra_matches_tuple_sets")),
    Mutant("count-walk-infinity-counted-as-affine", CURVES,
           "counts[:, int(at_infinity)] +=", "counts[:, 0] +=",
           (SLABS, T_CURVES + "test_count_curve_points_conic", T_CURVES + "test_count_cr_points",
            T_CURVES + "test_cli_curves_and_decomp_bytes_pinned")),
    Mutant("chart-budget-without-pair-matrix", CURVES,
           "+ 16 * n * n", "",
           (T_LAB + "test_cli_exit_codes",)),
    Mutant("chart-budget-charges-one-system", CURVES,
           "charged = n * (p**k", "charged = (p**k",
           (T_LAB + "test_cli_exit_codes",)),
    Mutant("chart-budget-works-out-p-to-the-k-at-any-k", CURVES,
           "if k >= CHART_BYTE_CAP.bit_length():", "if False:",
           (T_CURVES + "test_budget_guards",)),
    Mutant("decomposition-budget-charges-c-n-only", CURVES,
           "_check_budget(f.p, k, len(systems) + 1)", "_check_budget(f.p, k, 1)",
           (T_LAB + "test_cli_exit_codes",)),
    Mutant("image-zero-count-off-by-one", "src/polyiter/cli.py",
           '"zero_preimages": args.p - size', '"zero_preimages": args.p - size + 1',
           (T_LAB + "test_cli_image_counts_without_the_full_domain_histogram",)),
    Mutant("q-bound-linear-one-high", LAB,
           "q[r] >= half * r + 1", "q[r] >= half * r + 2",
           (VERIFY_QUICK,)),
    Mutant("q-bound-increment-sign", LAB,
           "q[r] - q[r - 1] >= half", "q[r - 1] - q[r] >= half",
           (VERIFY_QUICK,)),
    Mutant("u-bound-level-factor-r-plus-1", LAB,
           "(r + 2) ** (k - 1) * d ** (k - 1)", "(r + 1) ** (k - 1) * d ** (k - 1)",
           (VERIFY_QUICK,)),
    Mutant("asymptotic-ratio-d-for-d-minus-1", LAB,
           "Fraction((d - 1) * r, 2 << bits)", "Fraction(d * r, 2 << bits)",
           (VERIFY_QUICK, "tests/test_acceptance.py::test_criterion_7_asymptotic_trend")),
    Mutant("theorem-statistics-unhit-count-off-by-one", LAB,
           "rec.p - np.count_nonzero(dist == 0)", "rec.p - np.count_nonzero(dist == 0) + 1",
           (VERIFY_QUICK,)),
    Mutant("sweep-record-cap-per-prime-only", LAB,
           "most = cfg.per_prime * len(primes)", "most = cfg.per_prime",
           (T_LAB + "test_sweep_record_cap_bounds_the_random_policy",)),
    Mutant("sweep-batch-sorted-on-c-then-a", LAB,
           'batch.sort(key=attrgetter("A", "C"))', 'batch.sort(key=attrgetter("C", "A"))',
           (T_LAB + "test_cli_sweep_bytes_pinned",
            T_LAB + "test_random_policy_matches_independent_draw")),
    Mutant("collision-row-index-one-high", LAB,
           "orbit.collision_index, orbit.collision_index * loglog / p",
           "orbit.collision_index + 1, orbit.collision_index * loglog / p",
           (VERIFY_QUICK,)),
    Mutant("collision-row-tail-and-cycle-swapped", LAB,
           "orbit.tail_len, orbit.cycle_len,", "orbit.cycle_len, orbit.tail_len,",
           (T_LAB + "test_cli_sweep_bytes_pinned",)),
]


def _failed(output: str) -> set[str]:
    """Node ids, parameters stripped, of the FAILED and ERROR lines of -rfE."""
    found = set()
    for line in output.splitlines():
        if line.startswith(("FAILED ", "ERROR ")):
            found.add(line.split(" ", 1)[1].split(" - ", 1)[0].split("[", 1)[0])
    return found


def _pytest(copy: str, tests: list[str]) -> tuple[int, set[str]]:
    env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider", *tests],
        cwd=copy, env=env, capture_output=True, text=True)
    return proc.returncode, _failed(proc.stdout)


def main(argv: list[str]) -> int:
    by_name = {m.name: m for m in MUTANTS}
    unknown = [name for name in argv if name not in by_name]
    if unknown:
        print(f"unknown mutants: {', '.join(unknown)}", file=sys.stderr)
        return 2
    chosen = [by_name[name] for name in argv] if argv else MUTANTS
    copy = tempfile.mkdtemp(prefix="polyiter-mutants-")
    try:
        skip = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        for name in ("src", "tests", "tools"):
            shutil.copytree(os.path.join(ROOT, name), os.path.join(copy, name), ignore=skip)
        shutil.copy(os.path.join(ROOT, "pyproject.toml"), copy)
        listed = sorted({t for m in chosen for t in m.tests})
        code, failed = _pytest(copy, listed)
        if code != 0:
            print(f"unmutated copy fails listed tests: {sorted(failed) or code}")
            return 1
        survivors = 0
        for mutant in chosen:
            path = os.path.join(copy, mutant.file)
            with open(path) as handle:
                source = handle.read()
            with open(path, "w") as handle:
                handle.write(source.replace(mutant.old, mutant.new, 1))
            try:
                _, failed = _pytest(copy, list(mutant.tests))
            finally:
                with open(path, "w") as handle:
                    handle.write(source)
            passed = [t for t in mutant.tests if t not in failed]
            survivors += bool(passed)
            verdict = f"SURVIVED, passed: {', '.join(passed)}" if passed else "caught"
            print(f"{mutant.name}: {verdict}")
        print(f"{len(chosen) - survivors} of {len(chosen)} mutants caught")
        return 1 if survivors else 0
    finally:
        shutil.rmtree(copy, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
