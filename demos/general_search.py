"""Search driven by a generic source-fixing diffusion operator.

The diffusion spectrum is random inside a phase band instead of Grover's
all-at-pi layout.  Two closed-form numbers still describe the whole run:
the rotating pair turns by 2 alpha / b per step, skewed by the mixing
angle eta with cot(2 eta) = lambda1 / (2 alpha b), and ``search.peak_law``
puts the success peak at q_m = round(pi b sin(2 eta) / (4 alpha) - 1/2)
with height about sin^2(2 eta) / b^2.  This band is symmetric, so
lambda1 vanishes, sin(2 eta) = 1 and the height is 1/b^2.
"""

from gqsearch import search, spectra


def main():
    spec = spectra.symmetric_spectrum(64, 7, 1.2, 1.7, alpha=0.02)
    inst = spectra.SearchInstance.build(spec)
    predicted = search.predict_spectrum(inst)

    print(f"N = {inst.dimension}, alpha = {inst.alpha:.4f}, "
          f"b = {inst.b_factor:.6f}, theta_min = {inst.theta_min:.4f}")
    print(f"predicted rotating pair: +{predicted.lambda_plus:.6f} / "
          f"{predicted.lambda_minus:.6f} (mixing angle {predicted.eta:.4f})")

    phase_plus, phase_minus, residual = search.verify_relevant_pair(inst)
    print(f"measured  rotating pair: +{phase_plus:.6f} / {phase_minus:.6f} "
          f"(leakage outside the pair: {residual:.2e})")
    print()

    report = search.run_iterations(inst)  # q_max defaults to 2 q_m
    print(f"predicted peak: q = {predicted.q_m}, "
          f"p ~ {predicted.peak_overlap**2:.4f}")
    print(f"measured  peak: q = {report.peak_q}, "
          f"p = {report.peak_probability:.4f}")
    print()
    print("the run costs one oracle query per iteration, so reaching the peak")
    print(f"used {report.peak_q} queries and "
          f"{report.peak_q * report.ds_per_step} diffusion applications")


if __name__ == "__main__":
    main()
