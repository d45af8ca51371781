"""Desk-scale numerics for voice transforms and certified Banach frames.

Highlights:

* the affine group law and Haar quadrature on the affine group and the
  time-frequency plane (:mod:`coorbit.groups`);
* the weight families driving weighted-norm estimates
  (:mod:`coorbit.weights`);
* wavelet and short-time Fourier transforms with admissibility,
  inversion and reproducing kernels (:mod:`coorbit.voice`);
* weighted norms, group convolution, oscillation and Young checks
  (:mod:`coorbit.fields`);
* lattices, well-spreadness verification and indicator partitions of
  unity (:mod:`coorbit.lattices`);
* frame certificates, empirical frame bounds, Neumann reconstruction,
  lattice design and the Gabor frame operator (:mod:`coorbit.frames`).

The package exports each module's ``__all__``, and nothing else.
"""

from .groups import *
from .weights import *
from .signals import *
from .voice import *
from .fields import *
from .lattices import *
from .frames import *

__version__ = "0.1.0"
