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


def force_complex_eigh(monkeypatch) -> None:
    """Make the package solve every matrix in complex arithmetic, real or not.

    Both holders of ``operators.eigh`` are patched; the replacement still
    reaches ``np.linalg.eigh`` at call time, so ``count_eigh`` sees it.
    """
    from perturbsense import operators, oracle

    def complex_eigh(m):
        return np.linalg.eigh(m)

    monkeypatch.setattr(operators, "eigh", complex_eigh)
    monkeypatch.setattr(oracle, "eigh", complex_eigh)


def force_complex_couplings(monkeypatch) -> None:
    """Make ``PerturbationProblem.couplings`` take its complex path, real model or not."""
    from perturbsense import perturbation

    monkeypatch.setattr(perturbation, "_real", lambda *arrays: False)


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
