"""Monte-Carlo pointer readouts converging on the exact negative moment.

Individual runs of the two-projector experiment just produce two noisy
pointer positions; nothing about a single run looks anomalous. The
anomaly lives in the average of x1*x2 over many shots. This script draws
shots one Kraus update at a time from the exact joint pointer density and watches the running mean
settle onto the exact value, then repeats the exercise with a
post-selection to show retention bookkeeping.

Run:  python demos/shot_noise_sampling.py
"""

import math

import numpy as np

import weaklab as wl

scn = wl.build_illustrative(5.0, 1.0)
exact = wl.exact_moment(scn, wl.MomentPattern.from_string("xx")).value
print(f"exact mean x1*x2 at sigma1=5: {exact:+.6f}")
print()

samples, _ = wl.sample_outcomes(scn, 200_000, seed=42)
product = samples[:, 0] * samples[:, 1]
print(f"{'shots':>8} {'running mean':>14} {'stderr':>10}")
for count in (100, 1_000, 10_000, 200_000):
    window = product[:count]
    print(f"{count:8d} {window.mean():+14.6f} {window.std(ddof=1) / math.sqrt(count):10.4f}")
print()
print(f"every one of the {len(samples)} shots kept, none rejected")
print("Note the stderr scale: the pointer spread (~sigma1*sigma2) buries the")
print("signal, which is why many shots are needed.")
print()

# With a post-selection, shots are retained with the exact probability
# Tr(eta); the retained fraction is part of the run statistics.
post = np.diag([1.0, 0.0])
scn_post = wl.Scenario(scn.initial, scn.observables, scn.widths, post)
shots = 50_000
samples, _ = wl.sample_outcomes(scn_post, shots, seed=42)
exact_post = wl.exact_moment(scn_post, wl.MomentPattern.from_string("xx"))
print(f"with post-selection on |0><0|: retained {len(samples)} of "
      f"{shots} shots (p = {exact_post.postselection_probability:.4f})")
product = samples[:, 0] * samples[:, 1]
stderr = product.std(ddof=1) / math.sqrt(product.size)
print(f"conditional mean x1*x2: sampled {product.mean():+.4f} vs exact {exact_post.value:+.4f}"
      f" (stderr {stderr:.4f})")
