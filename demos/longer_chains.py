"""Longer projector chains: weak values sink toward -1, pointers do not.

The chain of n projectors at angles j*pi/(n+1) drives the sequential
weak value to -(cos pi/(n+1))^(n+1) -> -1. But the mean product of all n
pointer positions is a different quantity for n > 2: it mixes several
operator orderings, and empirically never beats the -1/8 of the n = 2
case.

Run:  python demos/longer_chains.py
"""

import weaklab as wl

print(f"{'n':>3} {'weak value':>14} {'pointer product (weak limit)':>30}")
for n in range(2, 11):
    scn = wl.build_projector_chain(n, 50.0)
    wv = wl.seq_weak_value(scn.initial, None, scn.sequence()).value.real
    product = wl.weak_prediction(scn, wl.MomentPattern.all_position(n)).value
    print(f"{n:3d} {wv:+14.8f} {product:+30.8f}")

print()
print("The weak value marches toward -1; the all-position pointer moment")
print("bottoms out at -1/8 (n = 2 and 3) and then retreats.")
print()

# For n = 3 the pointer moment averages two orderings of the observables;
# the exact engine at finite width agrees with that combination.
scn = wl.build_projector_chain(3, 50.0)
exact = wl.exact_moment(scn, wl.MomentPattern.all_position(3)).value
weak = wl.weak_prediction(scn, wl.MomentPattern.all_position(3)).value
print(f"n=3 at sigma=50: exact {exact:+.8f} vs weak-limit {weak:+.8f}")

# The full weak value is still measurable: combine position and momentum
# readouts across subsets of the first n-1 pointers.
recovered = wl.recover_weak_value(scn, wl.EvaluationMethod.EXACT)
print(f"n=3 weak value recovered from exact moments: {recovered.real:+.8f}"
      f"  (closed form {wl.chain_weak_value(3):+.8f})")
