"""End-to-end run of the phase-estimation-boosted search.

A resonant spectrum with a large b factor makes plain search painfully
slow (peak near pi b / 4 alpha iterations).  Conjugating the conditional
flip with phase estimation rewrites every eigenphase theta as 2^m theta
or pi, which compresses the effective b factor to b' = O(1): the peak
arrives a factor ~b sooner at the price of 3 * 2^m - 2 diffusion
applications per iteration.  ``search.peak_law`` predicts both peaks, from
(b, lambda1) for the plain run and from (b', boosted lambda1) for the
boosted one.
"""

from gqsearch import pea, search, spectra


def main():
    spec = spectra.resonant_spectrum(64, 6, 1e-3, 21, alpha=1.0 / 16.0)
    inst = spectra.SearchInstance.build(spec)
    m = pea.default_ancilla_count(inst.b_factor)
    split = pea.b_prime(inst, m)

    print(f"N = {inst.dimension}, alpha = {inst.alpha:.4f}, "
          f"b = {inst.b_factor:.4f}")
    print(f"ancilla qubits m = {m}; boosted factor b' = {split.b_prime:.4f}")
    print(f"  bad-branch share  sigma1 = {split.sigma1:.4f} (always <= 1)")
    print(f"  powered share     sigma2 = {split.sigma2:.4f} (= b^2 / 4^m)")
    print()

    plain = search.run_iterations(inst)
    boosted = pea.boosted_search_run(inst, m)

    print("              plain         boosted")
    print(f"peak q        {plain.peak_q:<13d} {boosted.peak_q}")
    print(f"peak p        {plain.peak_probability:<13.4f} "
          f"{boosted.peak_probability:.4f}")
    # one oracle query and ds_per_step diffusions per iteration
    print(f"queries       {plain.peak_q:<13d} {boosted.peak_q}")
    ds_plain = plain.peak_q * plain.ds_per_step
    ds_boost = boosted.peak_q * boosted.ds_per_step
    print(f"diffusions    {ds_plain:<13d} {ds_boost}  "
          f"({boosted.ds_per_step} per iteration)")
    print()
    saving = plain.peak_q / boosted.peak_q
    law_q, law_p = search.peak_law(
        split.b_prime, inst.alpha, pea.boosted_lambda1(inst, m)
    )
    print(f"oracle-query saving: {saving:.1f}x, close to b = "
          f"{inst.b_factor:.1f} as predicted (boosted peak law q = {law_q})")
    print(f"expected boosted peak height, peak law p = {law_p:.4f}")


if __name__ == "__main__":
    main()
