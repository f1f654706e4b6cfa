"""Certified counterexamples to the unique coclique extension property.

Four families where UCEP fails: totally singular lines of B_3 (odd
characteristic), totally isotropic planes of C_3 (odd characteristic),
totally singular planes of D_4 (characteristic 2), and {i, n-i} flags
in projective space. Each case is data: two explicit witness objects
and a maximal apartment coclique compatible with both, so the extension
set is not a coclique. One certifier, verify_witness, checks every case
from the basis matrices alone, by exact ranks: the witnesses are
opposite (adjacent) vertices, the coclique is maximal in the apartment,
and neither witness is opposite any of its members. The D_4 planes are
then checked exhaustively, as BuildingSpec("D", 4, 2, (3, 4)).
"""

import json

from kneserlab import BuildingSpec, build_graph, verify_nonexample
from kneserlab.coclique import check_ucep

for case in ("B3_2", "C3_3", "D4_34", "A_flags"):
    report = verify_nonexample(case)
    print("%-8s p=%d -> %s" % (case, report["p"], report["verdict"]))
    print("  witness 1:", report["witnesses"][0])
    print("  witness 2:", report["witnesses"][1])
    print("  compatible apartment coclique size:", len(report["coclique"]))

print("\nfull exhaustive check on the D_4 planes graph:")
graph = build_graph(BuildingSpec("D", 4, 2, (3, 4)))
report = check_ucep(graph, mode="all")
print("vertices:", graph.num_vertices, "| verdict:", report.verdict)
print("least violating pair found inside an extension set:")
print(json.dumps({"x": report.witness["x"], "y": report.witness["y"]},
                 indent=2))
