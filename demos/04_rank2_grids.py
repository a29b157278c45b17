"""Walkthrough: the rank-2 composite valuation on Q(x,y) and glider grids.

Run:  python3 demos/04_rank2_grids.py
"""

from gliderbs.fields import QXY_FIELD, composite2
from gliderbs.gbs import classify_field_glider
from gliderbs.rank2 import (classify_z2_glider, horizontal_coarsening,
                            realize_z2, residue_glider,
                            vertical_body_glider, Z2Filtration)

f = QXY_FIELD
c2 = composite2()

print("The composite valuation: x-adic first, then y-adic on the residue.")
for text in ("x^2*y^3 + x^3", "x", "y", "1/y", "(y+x)/(1+x*y)"):
    e = f.parse(text)
    print(f"  val({text}) = {c2(e)}")

print("\nresidue of (y+x)/(1+x*y) lands in Q:",
      str(c2.residue(f.parse("(y+x)/(1+x*y)") / f.parse("y"))))

print("\nA pure shift grid for (m, n) = (1, -2): cells F_(2-j, -2-i).")
g = realize_z2((1, -2))
for i in (2, 1, 0):
    print("   ", "  ".join(str(g.cell(j, i)) for j in range(3)))
v = classify_z2_glider(g)
print("classification:", v.status, v.shift)

print("\nColumn bodies live on the horizontal coarsening (x-adic):")
vb = vertical_body_glider(g)
print("  bodies:", [vb.body(j) for j in range(3)])
chain = vb.as_glider()
bv = classify_field_glider(chain)
print("  body chain classifies with the first shift:", bv.element.shift)

print("\nResidue chains between columns live on Q(y) with the y-adic:")
r0 = residue_glider(g, 0)
print("  residue chain exponents:", [r0.level(i).exps for i in range(3)])
print("  classifies with the second shift:",
      classify_field_glider(r0).element.shift)

print("\nThe horizontal coarsening itself:",
      horizontal_coarsening(Z2Filtration()))
