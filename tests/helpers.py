"""Shared test utilities: random inputs and independent brute-force oracles."""

from __future__ import annotations

import itertools
import math

import numpy as np


def random_hermitian(rng: np.random.Generator, dim: int, scale: float = 1.0) -> np.ndarray:
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return scale * 0.5 * (m + m.conj().T)


def random_state(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def phase_align(v: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """Multiply v by the phase making <reference|v> real positive."""
    z = np.vdot(reference, v)
    return v * np.conj(z / abs(z))


def count_eigh(monkeypatch) -> list:
    """Record the (shape, dtype) of every ``np.linalg.eigh`` call from now on."""
    calls = []
    eigh = np.linalg.eigh

    def counting_eigh(*args, **kwargs):
        calls.append((args[0].shape, args[0].dtype))
        return eigh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    return calls


def force_complex(monkeypatch) -> None:
    """Make every ``HermitianOperator`` built from now on keep a complex matrix.

    The package decides in one predicate, ``operators._is_real``, whether a
    matrix is stored as float64; with it false, every solve and coupling
    gather of an operator built after this call runs in complex arithmetic.
    """
    from perturbsense import operators

    monkeypatch.setattr(operators, "_is_real", lambda m: False)


def record_gathers(monkeypatch) -> list:
    """Record (problem, mu, columns) of every ``coupling_columns`` call from now on."""
    from perturbsense import PerturbationProblem

    calls = []
    gather = PerturbationProblem.coupling_columns

    def recording(problem, mu, columns):
        calls.append((problem, mu, np.array(columns)))
        return gather(problem, mu, columns)

    monkeypatch.setattr(PerturbationProblem, "coupling_columns", recording)
    return calls


def count_eigvalsh(monkeypatch) -> list:
    """Record the shape of every ``np.linalg.eigvalsh`` call from now on."""
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counting_eigvalsh(*args, **kwargs):
        calls.append(args[0].shape)
        return eigvalsh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
    return calls


def x_power_element(m: int, n: int, power: int) -> float:
    """<m| x^power |n> by expanding (a + a^dag)^power over operator strings.

    Walks every length-``power`` string of ladder operators applied to
    |n> right-to-left, fully independent of any matrix representation.
    """
    total = 0.0
    for ops in itertools.product("aA", repeat=power):
        level = n
        coefficient = 1.0
        for op in reversed(ops):
            if op == "a":
                if level == 0:
                    coefficient = 0.0
                    break
                coefficient *= math.sqrt(level)
                level -= 1
            else:
                coefficient *= math.sqrt(level + 1)
                level += 1
        if coefficient != 0.0 and level == m:
            total += coefficient
    return total / 2 ** (power / 2.0)
