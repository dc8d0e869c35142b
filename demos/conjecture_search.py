"""Searching for pointer products below -1/8 (and not finding them).

Multi-start see-saw sweeps over the initial state and n projector kets,
minimizing the weak-limit mean product of all pointer positions. The
objective is linear in each projector and in the state's density matrix,
so each update sets one ket to the least eigenvector of its block
operator, and no update raises the value; an evaluation is one such
eigenpair. For n = 2 the floor -1/8 is provably tight; for longer
sequences of rank-1 projectors the search keeps landing on exactly the
same floor, which is the evidence behind conjecturing it holds for every
n. The search and the conjecture cover rank-1 projectors only; projectors
of higher rank go lower (ROADMAP item 15).

Run:  python demos/conjecture_search.py        (a few seconds)
"""

import weaklab as wl

print(f"{'n':>3} {'best found':>16} {'evaluations':>12} {'gap to -1/8':>14}")
for n in (2, 3, 4, 5):
    result = wl.minimize_pointer_product(n=n, d=2, restarts=32, seed=7, budget=20_000)
    gap = result.best_value - (-0.125)
    print(f"{n:3d} {result.best_value:+16.10f} {result.evaluations:12d} {gap:14.2e}")
    if result.best_value < -0.125 - 1e-9:
        print("  ^^ FINDING: below the conjectured floor - inspect this configuration:")
        print("    ", result.best_point)

print()
print("The weak value itself is another story: it can be pushed toward -1.")
result = wl.minimize_weak_value_real(n=6, d=2, restarts=16, seed=7, budget=20_000)
print(f"min Re(weak value), n=6: {result.best_value:+.6f}"
      f"  (chain family gives {wl.chain_weak_value(6):+.6f}, hard floor is -1)")
