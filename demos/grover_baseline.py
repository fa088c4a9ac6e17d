"""Classic uniform-superposition search as a sanity baseline.

The diffusion operator fixes the uniform source and flips every other
eigenvector, so the success curve must follow sin((2q+1) asin(alpha))^2
exactly and peak near (pi/4) sqrt(N).
"""

import math

from gqsearch import search, spectra


def main():
    n = 256
    inst = spectra.SearchInstance.build(spectra.grover_spectrum(n))
    predicted = search.predict_spectrum(inst)

    print(f"database size N = {n}, overlap alpha = {inst.alpha}")
    print(f"b factor = {inst.b_factor:.6f} (slightly below 1: the source")
    print("itself is excluded from the leakage sum)")
    print(f"predicted peak iteration q_m = {predicted.q_m}")
    print()

    report = search.run_iterations(inst, 2 * predicted.q_m)
    angle = math.asin(inst.alpha)
    print(" q   measured p    closed form")
    for q in range(0, 2 * predicted.q_m + 1, max(1, predicted.q_m // 4)):
        exact = math.sin((2 * q + 1) * angle) ** 2
        print(f"{q:3d}   {report.target_probability[q]:.8f}   {exact:.8f}")
    print()
    print(
        f"peak: q = {report.peak_q}, probability = {report.peak_probability:.6f}, "
        f"oracle queries = {report.peak_q}"
    )


if __name__ == "__main__":
    main()
