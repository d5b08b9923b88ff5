"""The identity-verification harness.

A catalog of cross-function identities is evaluated over parameter grids;
each entry reports its worst and mean relative residual.  Because the two
sides of every identity travel different code paths (or one side is exact),
a perturbation anywhere in the numerical stack surfaces as a failing entry.

Run:  python3 demos/03_identity_catalog.py
"""

from zetakit import faults, run_catalog

print("Full catalog on the default grids")
reports = run_catalog()
print(f"  {'entry':24s} {'points':>6s} {'max rel err':>12s} {'verdict':>8s}")
for rep in reports:
    verdict = "pass" if rep.passed else "FAIL"
    print(f"  {rep.name:24s} {rep.points_tested:>6d} {rep.max_rel_err:>12.3e} {verdict:>8s}")
print(f"  -> {sum(r.passed for r in reports)}/{len(reports)} entries pass")

print("\nExact rational entries have literally zero residual")
(rep,) = run_catalog(["negint-7.9"])
print(f"  {rep.name}: max_rel_err = {rep.max_rel_err!r} over {rep.points_tested} points")

print("\nInjecting a 1e-6 relative fault into one function")
for target in ("ext_fd", "hurwitz_zeta", "bernoulli-table"):
    with faults.inject(target):
        perturbed = run_catalog(reduced=True)
    tripped = [r.name for r in perturbed if not r.passed]
    print(f"  {target:14s} -> caught by {len(tripped)} entries, e.g. {tripped[:3]}")

print("\nAfter the context manager exits, the stack is clean again")
clean = run_catalog(reduced=True)
print(f"  clean re-run: {sum(r.passed for r in clean)}/{len(clean)} pass")
