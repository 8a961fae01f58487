"""Tree groups and their invariant profiles.

A rooted tree presents a finite abelian p-group: one generator per
non-root node, with p * v = parent(v) and the root standing for zero.
The profile u_0, u_1, ... counts the cyclic summands of each order.
"""

from ulmkit import GroupTree, invariants_of, nat, ulm_equal

z8 = GroupTree(2, {"r": None, "a": "r", "b": "a", "c": "b"})
z4_z2 = GroupTree(2, {"r": None, "a": "r", "b": "a", "c": "r"})
z2_cubed = GroupTree(2, {"r": None, "a": "r", "b": "r", "c": "r"})

for name, tree in [("Z8", z8), ("Z4 + Z2", z4_z2), ("Z2^3", z2_cubed)]:
    profile = invariants_of(tree)
    values = [profile.value_at(nat(k)) for k in range(profile.length.as_int())]
    print(f"{name:8} size {tree.size:2}   u = {values}")

# same size, same prime, three different groups
print()
print("Z8 == Z4+Z2 ?", ulm_equal(invariants_of(z8), invariants_of(z4_z2)))

# two different trees can still present the same group: a chain of two
# hanging off the root is Z4 + Z2, and so is a chain with a stray leaf
other = GroupTree(2, {"r": None, "x": "r", "y": "x", "z": "r"})
print("two spellings of Z4+Z2:", ulm_equal(invariants_of(z4_z2), invariants_of(other)))

# heights: how often an element can be divided by p
# in the chain r -> a -> b the relation reads 2*b = a, so a is divisible
a, c = z4_z2.node("a"), z4_z2.node("c")
print(f"\nheight of a in Z4+Z2:   {a.height()} (a = 2b)")
print(f"height of a+c:          {(a + c).height()} (adding the leaf c spoils divisibility)")
