"""The abstract coset model and its cross-validation against geometry.

Apartment objects of type J correspond to cosets w X of the parabolic
X = <R \\ J> in the Weyl group, adjacent when v^-1 w lies in the double
coset X w0 X. The same graph must come out of the geometric model on
coordinate-frame objects, under the canonical labeling -- checked by an
explicit bijection, never by isomorphism search. Each cross-validated
geometry is named by its BuildingSpec.
"""

from kneserlab import (
    BuildingSpec,
    ParabolicQuotient,
    WeylGroup,
    check_lifting,
    cross_validate,
    phi_map,
    shortest_double_coset,
)

w = WeylGroup("A", 4)
print("|W(A_4)| =", w.order, " w0 =", w.w0)
q = ParabolicQuotient(w, (2,))
print("cosets of type {2}:", q.num_vertices,
      "(the Petersen graph: degrees %s)" %
      sorted(bin(r).count("1") for r in q.adjacency))

a3 = WeylGroup("A", 3)
chambers = ParabolicQuotient(a3, (1, 2, 3))
mid = ParabolicQuotient(a3, (2,))
phi_map(chambers, mid)
print("\nphi: chambers -> type-{2} cosets is a graph homomorphism")
print("edges lift along phi:", check_lifting(chambers, mid)[0])
print("shortest element of X w0 X for J={1,2} and J={2} agree:",
      shortest_double_coset(a3, (1, 2)) == shortest_double_coset(a3, (2,)))

print("\ncross-validation (coset graph vs geometric apartment):")
for spec in [
    BuildingSpec("A", 4, 2, (2,)),
    BuildingSpec("C", 3, 3, (3,)),
    BuildingSpec("D", 4, 2, (3, 4)),
    BuildingSpec("D", 4, 2, (3,)),
]:
    report = cross_validate(spec)
    print("  %s_%d %s p=%d -> ok=%s vertices=%d" % (
        spec.family, spec.rank, set(spec.types), spec.p, report["ok"], report["vertices"]))
