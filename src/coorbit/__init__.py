"""Desk-scale numerics for voice transforms and certified Banach frames.

Highlights:

* exact arithmetic and Haar quadrature on the affine group and the
  reduced Heisenberg group (:mod:`coorbit.groups`);
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
"""

from .groups import (
    AFFINE_IDENTITY,
    AffinePoint,
    GroupField,
    GroupQuadrature,
    HeisenbergPoint,
    affine_inv,
    affine_modular,
    affine_mul,
    build_affine_quadrature,
    build_tf_quadrature,
    haar_integral,
    heis_identity,
    heis_inv,
    heis_mul,
    left_translate_field,
)
from .weights import (
    WeightSpec,
    custom_weight,
    eval_weight,
    is_p_control,
    moderateness_probe,
    poly_tf,
    power_scale,
    submultiplicativity_probe,
    symmetric_power,
)
from .signals import (
    SampledSignal,
    Spectrum,
    antiderivative,
    derivative,
    dilate,
    fourier,
    gaussian,
    haar_wavelet,
    inverse_fourier,
    l2_norm,
    mexican_hat,
    modulate,
    moments,
    signal_from_spectrum_profile,
    translate,
    vanishing_moment_count,
)
from .voice import (
    NotAdmissible,
    NotAdmissibleError,
    admissibility_constant,
    cwt,
    duflo_moore_wavelet,
    gabor_atom,
    icwt,
    istft,
    normalize_admissible,
    reproducing_kernel,
    schrodinger_atom,
    stft,
    wavelet_rep,
)
from .fields import (
    KernelOperator,
    NeighborhoodSpec,
    affine_box,
    convolve,
    field_l2_norm,
    involute,
    kernel_project,
    lpm_norm,
    oscillation,
    tf_box,
    tf_convolve,
    young_check,
)
from .lattices import (
    BUPU,
    AffineLattice,
    SampledSequence,
    TFLattice,
    build_bupu,
    bupu_synthesize,
    is_relatively_separated,
    is_U_dense,
    norm_equivalence_check,
    sample_field,
    seq_lpm_norm,
)
from .frames import (
    BoundsReport,
    DesignResult,
    DesignSearchError,
    FrameCertificate,
    ReconstructionDivergence,
    ReconstructionReport,
    atom_certificate,
    atom_kernel,
    besov_exponent,
    design_lattice,
    frame_bounds_empirical,
    frame_operator_invert,
    gabor_coefficients,
    gabor_frame_operator,
    gabor_synthesize,
    gabor_tightness_probe,
    neumann_reconstruct,
    random_bandlimited_signal,
    stft_window_sufficient,
    wavelet_atom_sufficient,
)

__version__ = "0.1.0"
