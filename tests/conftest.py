import numpy as np
import pytest

import coorbit as cb
from coorbit.groups import _inverse


@pytest.fixture(scope="session")
def mexhat():
    return cb.mexican_hat(-20, 20, 4096)


@pytest.fixture(scope="session")
def mexhat_desk():
    # desk-scale grid: N = 4096 on [-32, 32)
    return cb.mexican_hat(-32, 32, 4096)


@pytest.fixture(scope="session")
def mexhat_desk_normalized(mexhat_desk):
    return cb.normalize_admissible(mexhat_desk)


@pytest.fixture(scope="session")
def gauss():
    return cb.gaussian(-16, 16, 2048)


@pytest.fixture(scope="session")
def s0_atom():
    """Schwartz atom with all moments vanishing: spectrum exp(-(w^2 + w^-2))."""
    return cb.signal_from_spectrum_profile(
        lambda w: np.exp(-(w**2 + np.where(w != 0, w**-2.0, np.inf))),
        -32, 32, 4096,
    )


@pytest.fixture(scope="session")
def s0_atom_normalized(s0_atom):
    return cb.normalize_admissible(s0_atom)


@pytest.fixture(scope="session")
def desk_quad():
    # desk scale: 64 log-spaced scales per sign on [1/16, 16], b-grid = signal grid
    return cb.build_affine_quadrature(-32, 32, 4096, 1 / 16, 16, 64, (1, -1))


def affine_inv(p):
    """The inverse of an ``AffinePoint``, by the library's one group law."""
    return cb.AffinePoint(*_inverse("affine", (p.b, p.a)))


def bump_field(quad, b0, u0, wb, wu, sign_idx=0):
    """Smooth compactly supported (to 1e-14) bump on one sign branch."""
    b, a = quad.node_points()
    u = np.log(np.abs(a))
    vals = np.zeros(quad.shape, dtype=complex)
    env = np.exp(-(((b - b0) / wb) ** 2) - ((u - u0) / wu) ** 2)
    env = np.where(env > 1e-14, env, 0.0)
    vals[sign_idx] = env[sign_idx]
    return cb.GroupField(quad, vals)


def rel_l2(field_a, field_b):
    from coorbit.fields import field_l2_norm

    diff = cb.GroupField(field_a.quad, field_a.values - field_b.values)
    return field_l2_norm(diff) / field_l2_norm(field_b)


def chirp(t0, dt, n, width, f0, rate=0.0):
    t = t0 + dt * np.arange(n)
    vals = np.exp(-((t / width) ** 2)) * np.exp(2j * np.pi * (f0 * t + rate * t * t))
    return cb.SampledSignal(t0, dt, vals)
