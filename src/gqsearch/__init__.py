"""Statevector simulation of search with arbitrary diffusion operators.

The package splits into five layers: ``linalg`` (dense kernels and the
eigensolver), ``spectra`` (diffusion eigenspectra, moments, instance
generators), ``search`` (the basic iteration and its predicted rotating
pair), ``pea`` (the phase-estimation boosted diffusion: runs as plain search
on an (N+1)-entry boosted spectrum at O(N) per step), and ``harness``
(configs, experiments, reports) with the ``gqsearch`` console script on top.
Each layer is a module of the package, and its names are read from there, as
in ``gqsearch.spectra.symmetric_spectrum``.  The dense oracles that check
them, ``gqsearch.dense``, are loaded only by the checks that use them.
"""

from . import harness, linalg, pea, search, spectra

__version__ = "0.1.0"
