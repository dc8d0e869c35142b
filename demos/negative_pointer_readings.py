"""Two weak projector measurements with a negative joint pointer reading.

A qubit starts in |0> and is weakly measured twice, with the projector
axes 120 degrees apart. Each projector has spectrum {0, 1}, each pointer
individually averages inside [0, 1], and no run is ever discarded - yet
the mean *product* of the two pointer positions turns negative once the
first measurement is weak enough, settling at -1/8.

Run:  python demos/negative_pointer_readings.py
"""

import numpy as np

import weaklab as wl

pattern = wl.MomentPattern.from_string("xx")

print("mean x1*x2 as the first pointer widens (second width fixed at 1):")
print(f"{'sigma1':>10} {'exact':>14} {'weak formula':>14} {'x1':>8} {'x2':>8}")
for sigma1 in np.geomspace(0.05, 100.0, 12):
    scn = wl.build_illustrative(float(sigma1), 1.0)
    exact = wl.exact_moment(scn, pattern).value
    weak = wl.weak_prediction(scn, pattern).value
    x1 = wl.exact_moment(scn, wl.MomentPattern.from_string("xi")).value
    x2 = wl.exact_moment(scn, wl.MomentPattern.from_string("ix")).value
    print(f"{sigma1:10.3f} {exact:+14.8f} {weak:+14.8f} {x1:8.4f} {x2:8.4f}")

print()
print("Strong first measurement -> +1/16: the classical story survives.")
print("Weak first measurement   -> -1/8:  outside [0, 1] with no post-selection.")
print()

# The second measurement's strength never matters here; it acts as an
# effective post-selection and can be as strong as we like.
for sigma2 in (0.01, 1.0, 100.0):
    scn = wl.build_illustrative(10.0, sigma2)
    value = wl.exact_moment(scn, pattern).value
    print(f"sigma2 = {sigma2:6.2f}: mean x1*x2 = {value:+.10f}")

print()
scn = wl.build_illustrative(1.0, 1.0)
wv = wl.seq_weak_value(scn)
print(f"The matching sequential weak value: {wv.real:+.4f} (the -1/8 the pointers chase).")
