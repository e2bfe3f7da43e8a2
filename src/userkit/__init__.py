"""userkit: expectation-value reconstruction for analog quantum simulators.

Two pipelines:

* USER -- sample expectation values at integer powers of a simulable
  fractional-power unitary and sinc-interpolate the inaccessible value.
* SEAR -- run USER with synthetic imperfect discretization sequences (target
  plus seeded defect), twirl the ensemble-defect channels into a depolarizing
  noise strength, and report value +/- (noise strength x observable spread).

Import names from the modules (userkit.sear, userkit.user_recon, ...); the
package itself holds only __version__.
"""

__version__ = "0.1.0"
