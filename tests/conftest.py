import os
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import bgframes
from bgframes import BiGFrameSystem, GFrameSystem
from bgframes.fileio import FrameFile, save_frame_file


@pytest.fixture
def instance_a() -> BiGFrameSystem:
    """Golden pair on C^2 with operator diag(2, 1).

    First family: a 1x2 functional plus a 2x2 swap block; second family:
    a doubled functional plus a one-sided shift. Every derived quantity
    (bounds, duals, coefficients) is known in closed form.
    """
    lam = GFrameSystem(
        2,
        (
            np.array([[1.0, 0.0]]),
            np.array([[0.0, 1.0], [1.0, 0.0]]),
        ),
    )
    gam = GFrameSystem(
        2,
        (
            np.array([[2.0, 0.0]]),
            np.array([[0.0, 1.0], [0.0, 0.0]]),
        ),
    )
    return BiGFrameSystem(lam, gam)


def write_pair_file(path, pair: BiGFrameSystem, vectors=None) -> None:
    """Store a pair as systems L, G plus optional named vector lists."""
    basis_vector = np.zeros(pair.dim, dtype=np.complex128)
    basis_vector[0] = 1.0
    save_frame_file(
        path,
        FrameFile(
            dim=pair.dim,
            systems={"L": pair.lam, "G": pair.gam},
            vectors=vectors if vectors is not None else {"e1": [basis_vector]},
        ),
    )


def rescaled_pair(pair: BiGFrameSystem, scale: float) -> BiGFrameSystem:
    """Both families of ``pair`` multiplied by ``scale``."""
    return BiGFrameSystem(
        *(GFrameSystem(pair.dim, tuple(scale * b for b in f.blocks)) for f in (pair.lam, pair.gam))
    )


def cholesky_breakdown_pair() -> BiGFrameSystem:
    """Lambda = Q diag(eps, 1, ..., 1) Q* on C^6 with |eps| <= 3e-17, Gamma = I.

    Lambda is exactly Hermitian, so S = H = Lambda. At this seed the
    computed smallest eigenvalue of H is about 2e-16, which passes the
    frame gate at tol 1e-18, yet the Cholesky factorization of H breaks
    down in roundoff.
    """
    rng = np.random.default_rng(1)
    q, _ = np.linalg.qr(rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))
    eps = rng.uniform(-3e-17, 3e-17)
    m = (q * np.r_[eps, np.ones(5)]) @ q.conj().T
    lam = 0.5 * (m + m.conj().T)
    return BiGFrameSystem(GFrameSystem(6, (lam,)), GFrameSystem(6, (np.eye(6),)))


def subnormal_edge_pair() -> BiGFrameSystem:
    """Lambda = diag(1, 1e-310), Gamma = I on C^2: a frame at tol 0 whose lower
    bound is subnormal, so ``||H^-1|| = 1e310`` lies beyond the double range."""
    return BiGFrameSystem(
        GFrameSystem(2, (np.diag([1.0, 1e-310]),)), GFrameSystem(2, (np.eye(2),))
    )


def gauged_identity_pair() -> BiGFrameSystem:
    """Lambda = (diag(1, 1e-10), 0), Gamma = (diag(1, 1e10), I) on C^2.

    The gauge map ``(A Lambda_1, A^-* Gamma_1)`` with ``A = diag(1, 1e-10)``
    applied to the pair ``((I, 0), (I, I))``, so S is exactly I. Both stacked
    families have rank 2, so each coefficient kernel has dimension 4 - 2 = 2,
    though the lambda side has a singular value of 1e-10.
    """
    lam = GFrameSystem(2, (np.diag([1.0, 1e-10]), np.zeros((2, 2))))
    gam = GFrameSystem(2, (np.diag([1.0, 1e10]), np.eye(2)))
    return BiGFrameSystem(lam, gam)


@pytest.fixture
def lapack_calls(monkeypatch) -> Counter:
    """Counts of Cholesky factorizations, Hermitian spectra, singular value
    decompositions and QR factorizations, by name; ``clear()`` resets them."""
    calls: Counter = Counter()

    def counting(name):
        original = getattr(np.linalg, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, wrapper)

    for name in ("cholesky", "eigvalsh", "svd", "qr"):
        counting(name)
    return calls


def package_env() -> dict:
    """Environment for a `python -m bgframes.cli` child process.

    Puts the absolute directory holding the imported `bgframes` first on
    PYTHONPATH, so the child runs the same package as the test process
    from any working directory, installed or not.
    """
    env = os.environ.copy()
    root = str(Path(bgframes.__file__).resolve().parent.parent)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = root + os.pathsep + existing if existing else root
    return env


def random_complex_vector(rng: np.random.Generator, dim: int) -> np.ndarray:
    return rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
