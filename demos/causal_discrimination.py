"""Telling "same system twice" apart from "two halves of a shared state".

Alice and Bob each weakly measure a 0/1 projector and later compare
pointer readings. If they measured two halves of a bipartite state
(common cause), the mean product of their pointers is an honest
expectation value and stays inside [0, 1]. If Bob measured the system
Alice had already touched (direct cause), the mean product can leave
that interval - so a negative reading certifies the direct-cause
structure, with no post-selection anywhere.

Run:  python demos/causal_discrimination.py
"""

import math

import numpy as np

import weaklab as wl

pattern = wl.MomentPattern.from_string("xx")
hull = (0.0, 1.0)  # products of 0/1 outcomes
margin = 1e-6

print("common-cause runs (random shared states and projector axes):")
rng = np.random.default_rng(4)
for trial in range(5):
    vec = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    shared = vec / np.linalg.norm(vec)
    axis_a = rng.uniform(0.0, math.pi)
    axis_b = rng.uniform(0.0, math.pi)
    scn = wl.build_common_cause(
        shared,
        wl.projector_from_ket(wl.qubit_ket(axis_a)),
        wl.projector_from_ket(wl.qubit_ket(axis_b)),
        sigma1=2.0,
        sigma2=2.0,
    )
    moment = wl.exact_moment(scn, pattern).value
    verdict = wl.causal_witness(moment, hull, margin)
    print(f"  trial {trial}: mean x1*x2 = {moment:+.6f} -> {verdict.value}")

print()
print("direct-cause runs (sequential measurement of the same qubit), with the")
print("shots a 3-sigma witness needs, N = 9 (<XX> - <xx>^2) / <xx>^2:")
# The last pointer need not be weak: a narrow one keeps the anomaly and
# cuts the readout noise that sets N.
for sigma1, sigma2 in ((100.0, 1.0), (1.0, 0.001)):
    scn = wl.build_illustrative(sigma1, sigma2)
    moment = wl.exact_moment(scn, pattern).value
    square = wl.exact_moment(scn, wl.MomentPattern.from_string("XX")).value
    shots = 9.0 * (square - moment**2) / moment**2
    verdict = wl.causal_witness(moment, hull, margin)
    print(f"  sigma = ({sigma1:g}, {sigma2:g}): mean x1*x2 = {moment:+.6f} -> {verdict.value}, "
          f"N = {shots:,.0f} shots")
print()
print("Inside the hull the witness stays silent (a direct cause can mimic")
print("a common cause); only an escape from the hull is conclusive.")
