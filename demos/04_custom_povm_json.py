#!/usr/bin/env python3
"""Running the protocol on a hand-built POVM, via the JSON interface.

Builds a deliberately lopsided two-outcome measurement, serializes it to the
JSON schema the CLI consumes, validates it, and inspects the conditional
states. Also shows what the diagnostics look like for a broken candidate.
"""
import json
import os
import tempfile

import numpy as np

from entswap import Povm, measures, povm_from_dict, povm_to_dict, rho14_spectral, run_swap

# A projector onto one Bell-like vector plus the rest of the identity:
# two outcomes, still a perfectly valid POVM.
v = np.array([np.cos(0.3), 0, 0, np.sin(0.3)], dtype=complex)
sharp = 0.8
effect1 = sharp * np.outer(v, v.conj())
effect2 = np.eye(4) - effect1
povm = Povm((effect1, effect2), label="lopsided-2-outcome")
print("violations:", povm.violations() or "none")

with tempfile.TemporaryDirectory() as work:
    path = os.path.join(work, "lopsided.json")
    with open(path, "w") as fh:
        json.dump(povm_to_dict(povm), fh)
    print("wrote", path)
    print("(the CLI would consume this with: entswap analyze --povm", path + ")")
    with open(path) as fh:
        rebuilt = povm_from_dict(json.load(fh))
print("round-trip label:", rebuilt.label)

print()
print("=" * 72)
print("Conditional states per outcome")
print("=" * 72)
for outcome in run_swap(rebuilt):
    print(f"outcome {outcome.outcome_index}: probability {outcome.probability:.6f}")
    for pair in ("14", "12", "34"):
        rep = measures.report(outcome.pair_state(pair))
        print(
            f"  pair ({pair[0]},{pair[1]}): negativity={rep.negativity:.6f} "
            f"S3={rep.S3:.6f} N={rep.N:.6f}"
        )

print()
print("The (1,4) state equals the conjugated, trace-normalized effect:")
direct = rho14_spectral(rebuilt, 1)
pipeline = run_swap(rebuilt)[0].rho14
print("max difference:", np.abs(np.asarray(direct) - np.asarray(pipeline)).max())

print()
print("=" * 72)
print("Diagnostics for a broken candidate (effects sum to 2I)")
print("=" * 72)
broken = Povm((np.eye(4, dtype=complex), np.eye(4, dtype=complex)), label="double")
for problem in broken.violations():
    print(" -", problem)
