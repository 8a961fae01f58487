"""Two routes to the graded back-and-forth relation.

leq_std_game searches the extension game directly: every challenge tuple
on the right must admit an answer on the left preserving the relation one
level down. leq_barker decides the same relation from heights and the
generated subgroup alone. They must agree wherever both apply.
"""

from ulmkit import GroupTree, leq_barker, leq_std_game, nat

# Z8, Z4 and Z2 side by side in one ambient tree, so tuples share a carrier
G = GroupTree(2, {
    "r": None,
    "a": "r", "b": "a", "c": "b",   # c generates a Z8 (2c = b, 4c = a)
    "x": "r", "y": "x",             # y generates a Z4
    "z": "r",                       # a stray Z2
})

c = G.node("c")
y = G.node("y")
z = G.node("z")

pairs = [
    ("(c) vs (y)  ", (c,), (y,)),       # order 8 vs order 4: no correspondence
    ("(y) vs (y+z)", (y,), (y + z,)),   # an honest partial automorphism
    ("(z) vs (2y) ", (z,), (y.times_p(),)),  # orders match, heights do not
]

print("level    " + "  ".join(name for name, _, _ in pairs))
for beta in (1, 2, 3, 4):
    row = []
    for _, left, right in pairs:
        game = leq_std_game(G, left, G, right, beta)
        closed = leq_barker(G, left, G, right, nat(beta))
        assert game == closed, "the two routes disagreed"
        row.append(str(game))
    print(f"beta={beta}   " + "  ".join(f"{v:12}" for v in row))

print()
print("What the closed form checks here:")
print(f"  (c) vs (y):   <c> has order 8, <y> order 4, no correspondence at all")
print(f"  (y) vs (y+z): y -> y+z extends to <y> ~ <y+z>, heights {y.height()} = {(y + z).height()}")
print(f"  (z) vs (2y):  both give Z2, but heights {z.height()} != {y.times_p().height()}")
print()
print("Inside a single finite group the verdict is the same at every level:")
print("one round of the game can already name the whole carrier, so the")
print("relations stabilize at beta = 1. Grading across levels shows up for")
print("the infinite profiled groups (see extension_walkthrough.py).")
