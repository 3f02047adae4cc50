"""Squeezed-light transport through absorbing and amplifying random media.

Builds random waveguide scattering matrices, evaluates photocount statistics
(direct and homodyne detection) for coherent and squeezed input, and compares
Monte Carlo disorder averages against closed-form large-N formulas.  Library
users import the submodules (``medium``, ``photostatistics``, ``analytics``,
``ensemble``, ``fock``, ``io``); the package itself exports no names.
"""
