"""Simulator and analysis toolkit for a photonic Leggett-Garg test with a
variable-strength polarization measurement.

The package layers are:

- :mod:`lgi_weaksim.qcore` - the tests' object-level reference: the meter
  setting (the measurement strength K), polarization states and the
  controlled-sign coupling. No command loads it.
- :mod:`lgi_weaksim.optics` - the paper's PPBS gate as a quantum channel:
  the network's direct and exchange coincidence paths, two diagonal Kraus
  operators, mixed by the photons' interference visibility.
- :mod:`lgi_weaksim.experiment` - the protocol on plain values: outcome
  probabilities, one ``Estimates`` tuple of correlator and weak-value
  estimators, sweeps and extrema.
- :mod:`lgi_weaksim.stats` - multinomial count sampling, propagated errors
  and Monte Carlo trial ensembles.
- :mod:`lgi_weaksim.cli` - CSV-emitting command-line harness.
- :mod:`lgi_weaksim.errors` - the domain error types, all ``ValueError``
  subclasses, and the two checks every entry point applies to its numeric
  parameters: a finite real number in a range, an integer in a range.

The package itself exports only ``__version__``; import names from the
modules, e.g. ``from lgi_weaksim.experiment import b_max``. Importing the
package loads none of them, so each caller pays only for what it uses.
"""

__version__ = "0.1.0"
