#!/usr/bin/env python3
"""Strong-converse exponent curves for privacy amplification and soft
covering, each computed two independent ways.

Privacy amplification: hashing X down to rate R while staying private
from Y. Above the conditional-entropy threshold the order-beta divergence
from the uniform-and-independent ideal must grow linearly; the exponent is

    beta < 1:  max over alpha in [beta, 1] of
               (beta(1-alpha))/(alpha(1-beta)) (R - H~_{alpha,beta}(X|Y))
    beta >= 1: |R - H_beta(X|Y)|+

Soft covering mirrors it with the mutual information and rates below it.
The dual forms replace the alpha maximization with a minimization over
auxiliary joints; agreement certifies both.
"""

import numpy as np

from renyinfo import SolverConfig, pa_dual_exponent, pa_exponent, sc_dual_exponent, sc_exponent
from renyinfo.dist import JointPmf
from renyinfo.measures import cond_entropy_variant, mutual_info_variant, shannon_cond_entropy, shannon_mi

solver = SolverConfig(max_iters=2500)
p = 0.1
joint = JointPmf(("0", "1"), ("0", "1"),
                 [[(1 - p) / 2, p / 2], [p / 2, (1 - p) / 2]])

h1 = shannon_cond_entropy(joint)
i1 = shannon_mi(joint)
print(f"binary symmetric pair, flip 0.1:  H(X|Y) = {h1:.4f} bits, I(X:Y) = {i1:.4f} bits")
print()

print("privacy amplification, beta = 0.5 (primal max-over-alpha vs dual min-over-Q):")
print("     R    exponent   arg alpha   dual        |diff|")
for r in np.linspace(0.0, 1.5, 7):
    res = pa_exponent(joint, 0.5, float(r))
    g1, g2 = pa_dual_exponent(joint, 0.5, float(r), solver)
    dual = min(g1.minimum, g2.minimum)
    print(f"  {r:5.2f}  {res.value:.6f}   {res.arg_alpha:.4f}    {dual:.6f}   "
          f"{abs(res.value - dual):.1e}")
print(f"  (exponent leaves 0 once R crosses H(X|Y) = {h1:.4f})")
print()

print("privacy amplification, beta = 2 closed form |R - H_2(X|Y)|+:")
h2 = cond_entropy_variant("h", joint, 2).value
for r in (0.0, h2, h2 + 0.25, 1.0):
    print(f"  R = {r:.4f}: exponent = {pa_exponent(joint, 2.0, r).value:.6f}")
print()

print("soft covering, beta = 0.5 (nonzero below I(X:Y), zero above):")
print("     R    exponent   dual        |diff|")
for r in np.linspace(0.0, 0.8, 5):
    res = sc_exponent(joint, 0.5, float(r))
    rep = sc_dual_exponent(joint, 0.5, float(r), solver)
    print(f"  {r:5.2f}  {res.value:.6f}   {rep.minimum:.6f}   "
          f"{abs(res.value - rep.minimum):.1e}")
print()

print("soft covering, beta = 2 closed form |I_2(X:Y) - R|+:")
i2 = mutual_info_variant("i", joint, 2).value
for r in (0.0, i2 / 2, i2, 1.0):
    print(f"  R = {r:.4f}: exponent = {sc_exponent(joint, 2.0, r).value:.6f}")
