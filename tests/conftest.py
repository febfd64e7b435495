import numpy as np
import pytest
from hypothesis import settings

import riccati_capacity as rc

# property tests replay the same examples on every run and stay cheap
settings.register_profile("tier1", derandomize=True, max_examples=25, deadline=None,
                          database=None)
settings.load_profile("tier1")


def scalar_noise(a, k_s1=0.0):
    """The (a, 1, 1, 1, 1) family: S+ = a S + W, V = S + W."""
    return rc.NoiseModel(A=[[a]], B=[[1.0]], C=[[1.0]], N=[[1.0]],
                         K_W=[[1.0]], K_S1=[[k_s1]])


def unit_iid_input(power=1.0):
    return rc.iid_input([[power]])


def unit_channel(kappa=1.0):
    return rc.Channel(H=[[1.0]], kappa=kappa)


def random_models(rng, n_s=2, n_xi=2, n_y=1, n_z=1, rho_A=0.9, rho_F=0.7):
    """Random valid (noise, input) pair with controlled spectral radii.

    n_w is set to n_y + 1 so a Gaussian N is almost surely full row
    rank and R stays positive definite.
    """
    n_w = n_y + 1
    A = rng.normal(size=(n_s, n_s))
    r = max(np.max(np.abs(np.linalg.eigvals(A))), 1e-12)
    A = A * (rho_A / r)
    B = rng.normal(size=(n_s, n_w))
    C = rng.normal(size=(n_y, n_s))
    N = rng.normal(size=(n_y, n_w)) + np.eye(n_y, n_w)
    L = rng.normal(size=(n_w, n_w)) * 0.4
    K_W = L @ L.T + np.eye(n_w)
    Ls = rng.normal(size=(n_s, n_s)) * 0.3
    K_S1 = Ls @ Ls.T
    noise = rc.NoiseModel(A=A, B=B, C=C, N=N, K_W=K_W, K_S1=K_S1)

    n_x = n_y
    F = rng.normal(size=(n_xi, n_xi))
    r = max(np.max(np.abs(np.linalg.eigvals(F))), 1e-12)
    F = F * (rho_F / r)
    G = rng.normal(size=(n_xi, n_z))
    Gamma = rng.normal(size=(n_x, n_xi))
    D = rng.normal(size=(n_x, n_z))
    Lz = rng.normal(size=(n_z, n_z)) * 0.5
    K_Z = Lz @ Lz.T + 0.5 * np.eye(n_z)
    Lx = rng.normal(size=(n_xi, n_xi)) * 0.3
    K_Xi1 = Lx @ Lx.T
    input_model = rc.InputModel(F=F, G=G, Gamma=Gamma, D=D, K_Z=K_Z,
                                K_Xi1=K_Xi1)
    return noise, input_model


@pytest.fixture
def rng():
    return np.random.default_rng(20260822)
