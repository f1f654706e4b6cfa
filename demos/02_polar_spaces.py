"""Polar-space Kneser graphs: totally singular subspaces under a form.

Builds the graph on totally singular lines of the hyperbolic orthogonal
space of type D_4 over F_2, type 2 (x ~ y iff perp(x) meets y
trivially), whose apartment is a perfect matching on 24 coordinate-frame
lines, and the two oriflamme families of maximal totally singular
subspaces, types 4 (plus) and 3 (minus). Points of B_3 and of the G_2
hexagon over F_3 are type 1 of each.
"""

from kneserlab import BuildingSpec, build_graph, check_ucep

lines = build_graph(BuildingSpec("D", 4, 2, (2,)))
print("totally singular lines of D_4 over F_2:", lines.num_vertices)
print("apartment: %d frame lines, %d edges among them"
      % (len(lines.sigma), sum(
          1 for a in lines.sigma for b in lines.sigma
          if a < b and lines.is_adjacent(a, b)
      )))
print("UCEP over all 2^12 apartment cocliques:",
      check_ucep(lines, mode="all").verdict)

plus = build_graph(BuildingSpec("D", 4, 2, (4,)))
minus = build_graph(BuildingSpec("D", 4, 2, (3,)))
print("\noriflamme families of maximal totally singular subspaces:")
print("  plus family:", plus.num_vertices, "members,",
      check_ucep(plus).verdict)
print("  minus family:", minus.num_vertices, "members,",
      check_ucep(minus).verdict)
print("  reference space:", plus.spec.coordinate((1, 2, 3, 4)).basis)

points = build_graph(BuildingSpec("B", 3, 3, (1,)))
print("\nsingular points of the B_3 quadric over F_3:", points.num_vertices)
print("UCEP:", check_ucep(points).verdict)

hexagon = build_graph(BuildingSpec("G", 2, 3, (1,)))
print("G_2 hexagon points (same graph, by the B_3 identification):",
      hexagon.num_vertices, "-", check_ucep(hexagon).verdict)
