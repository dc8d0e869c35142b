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
    shared = wl.PureState(vec / np.linalg.norm(vec))
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
print("direct-cause run (sequential measurement of the same qubit):")
scn = wl.build_illustrative(100.0, 1.0)
moment = wl.exact_moment(scn, pattern).value
verdict = wl.causal_witness(moment, hull, margin)
print(f"  mean x1*x2 = {moment:+.6f} -> {verdict.value}")
print()
print("Inside the hull the witness stays silent (a direct cause can mimic")
print("a common cause); only an escape from the hull is conclusive.")
