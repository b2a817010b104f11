"""Monte Carlo robustness of transfer against spin-placement errors.

Every spin (ends included) is displaced independently, the Hamiltonian is
rebuilt, and the state is evolved for exactly the clean system's peak time.
A sample fails when the fidelity at that nominal time drops below the
classical threshold 2/3. Per-sample randomness derives solely from
(seed, sample index): sample k draws from PCG64(SeedSequence((seed, k))),
exactly the generator np.random.default_rng((seed, k)) returns, so reports
are reproducible and order-independent. Samples are drawn and evaluated a
block at a time, and each block joins running totals and is dropped, so
memory does not grow with the sample count. A block's generator states are
computed in one vectorized pass that replicates numpy's SeedSequence hash
and PCG64's seeding (a test pins it against numpy), then loaded in turn
into one generator. The same replica, with PCG64's step and numpy's uniform
map in Python ints, draws the placement search's restart perturbations.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, fields

import numpy as np

from .errors import DomainError, InvalidGeometryError
from .lattice import (
    CouplingSpec,
    DIPOLE,
    Geometry,
    Topology,
    _count,
    _hamiltonian_matrices,
    _real,
    _to_member,
    build_hamiltonian,
)
from .spectral import _eigh, fidelity
from .transfer import end_to_end_summary

CLASSICAL_THRESHOLD = 2.0 / 3.0
_MAX_REDRAWS = 100
# Matrix elements per stacked `_eigh` call of a disorder block (256 matrices
# at N = 4), so that the eigensolve's temporaries keep one size however many
# samples a run draws.
_EIGH_BLOCK_ELEMENTS = 1 << 12
# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx) and
# PCG64's 128-bit LCG multiplier.
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32, _MASK64, _MASK128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1


class NoiseModel(enum.Enum):
    """Displacement ensemble: what is perturbed and with which distribution.

    Per-site models displace every spin coordinate independently; per-gap
    models displace every inter-site gap independently (errors accumulate
    along the chain). ``error_fraction`` is the half-width (uniform) or
    standard deviation (gaussian) of each draw, in units of the mean spacing.
    """

    UNIFORM_PER_SITE = "uniform"
    GAUSSIAN_PER_SITE = "gaussian"
    UNIFORM_PER_GAP = "uniform-gap"
    GAUSSIAN_PER_GAP = "gaussian-gap"


@dataclass(frozen=True)
class DisorderConfig:
    """Placement-error ensemble: per-site displacement scale and sampling.

    ``error_fraction`` is the displacement half-width (uniform) or standard
    deviation (gaussian) in units of the mean spacing a, a finite,
    non-negative real number (not a bool) kept as a float. ``samples`` (1 to
    2^32) and ``seed`` (non-negative) must be integers; a bool is not one.
    A sample whose draw breaks the site ordering is redrawn at most 100
    times before the run fails with DomainError.
    """

    error_fraction: float
    samples: int
    seed: int = 0
    noise_model: NoiseModel = NoiseModel.UNIFORM_PER_SITE

    def __post_init__(self):
        _to_member(self, "noise_model", NoiseModel, DomainError)
        fraction = _real(self.error_fraction, "error_fraction", 0)
        object.__setattr__(self, "error_fraction", fraction)
        object.__setattr__(self, "samples", _count(self.samples, "samples", 1, 1 << 32))
        object.__setattr__(self, "seed", _count(self.seed, "seed"))


@dataclass(frozen=True)
class DisorderReport:
    """Aggregate failure statistics of a disorder ensemble.

    Every field is a key of the JSON document, in order; ``noise_model`` is
    the model's value string.
    """

    failures: int
    failure_rate: float
    mean_f_at_nominal_time: float
    samples: int
    seed: int
    rejected: int
    t_nominal: float
    clean_f_max: float
    error_fraction: float
    noise_model: str

    def as_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


def _hasher(const: int, mult: int):
    """SeedSequence's hash of uint32 arrays: each call XORs in the running
    constant, steps it by ``mult`` and multiplies by it."""

    def hash_(value: np.ndarray) -> np.ndarray:
        nonlocal const
        value = value ^ const
        const = const * mult & _MASK32
        value = value * const
        return value ^ value >> 16

    return hash_


def _words(value: int) -> list[int]:
    """The little-endian uint32 words of a non-negative int, as SeedSequence
    splits its entropy: one word for 0."""
    words = [value & _MASK32]
    while value := value >> 32:
        words.append(value & _MASK32)
    return words


def _seeded_pcg64(words: list[np.ndarray]) -> list[tuple[int, int]]:
    """PCG64's (state, inc) when seeded from SeedSequence(entropy), for every
    entropy held column by column in ``words``, its uint32 words in order,
    each word one uint32 array.

    SeedSequence hashes the words into a 4-word pool (past 4 words each
    extra word is mixed into every pool word), and generate_state(4, uint64)
    hashes the pool into 128-bit s and i; PCG64 then sets inc = 2 i + 1 and
    state = (s + inc) * mult + inc mod 2^128. The hash runs on all columns
    at once.
    """
    words = words + [np.zeros_like(words[0])] * (4 - len(words))
    hashmix = _hasher(_INIT_A, _MULT_A)
    pool = [hashmix(word) for word in words[:4]]

    def mix(dst, value):
        mixed = pool[dst] * _MIX_L - hashmix(value) * _MIX_R
        pool[dst] = mixed ^ mixed >> 16

    for src in range(4):
        for dst in range(4):
            if dst != src:
                mix(dst, pool[src])
    for word in words[4:]:
        for dst in range(4):
            mix(dst, word)
    generate = _hasher(_INIT_B, _MULT_B)
    out = np.stack([generate(pool[i % 4]) for i in range(8)], axis=1)
    seeded = []
    for s_hi, s_lo, i_hi, i_lo in out.astype("<u4").view("<u8").tolist():
        inc = ((i_hi << 64 | i_lo) << 1 | 1) & _MASK128
        state = ((s_hi << 64 | s_lo) + inc) * _PCG_MULT + inc & _MASK128
        seeded.append((state, inc))
    return seeded


def _pcg64_states(seed: int, lo: int, hi: int) -> list[dict]:
    """Bit-generator states of np.random.default_rng((seed, k)), k = lo .. hi - 1.

    That generator is PCG64(SeedSequence((seed, k))), whose entropy is the
    uint32 words of seed, then k as one more word: k must stay below 2^32.
    """
    k = np.arange(lo, hi, dtype=np.uint32)
    words = [np.full(len(k), word, np.uint32) for word in _words(seed)] + [k]
    return [{"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
             "has_uint32": 0, "uinteger": 0}
            for state, inc in _seeded_pcg64(words)]


def _uniform_stream(seed: int, low: float, high: float, size: int) -> list[float]:
    """np.random.default_rng(seed).uniform(low, high, size) as floats, bit
    for bit, without numpy.random.

    default_rng(seed) is PCG64(SeedSequence(seed)). Each draw steps the
    128-bit LCG, outputs the XSL-RR of the new state, and maps its top 53
    bits u to low + (high - low) * (u * 2^-53), as numpy's uniform does.
    """
    ((state, inc),) = _seeded_pcg64([np.array([word], np.uint32)
                                     for word in _words(seed)])
    span = high - low
    draws = []
    for _ in range(size):
        state = state * _PCG_MULT + inc & _MASK128
        x, rot = (state >> 64 ^ state) & _MASK64, state >> 122
        x = (x >> rot | x << (64 - rot)) & _MASK64
        draws.append(low + span * ((x >> 11) * 2.0**-53))
    return draws


def _draw(rng: np.random.Generator, uniform: bool, size: int) -> np.ndarray:
    """One draw of ``size`` unscaled shifts, from U(-1, 1) or N(0, 1)."""
    return rng.uniform(-1.0, 1.0, size) if uniform else rng.standard_normal(size)


def _ensemble(geometry: Geometry, coupling: CouplingSpec, config: DisorderConfig):
    """The clean transfer summary, checked inputs first, and an iterator over
    the blocks in sample order: (their samples' fidelities, their redraws)."""
    if geometry.topology is not Topology.CHAIN:
        raise InvalidGeometryError("disorder analysis is defined for chains")
    positions = np.asarray(geometry.positions)
    spacing = geometry.mean_spacing
    min_gap = float(np.diff(positions).min())
    if config.error_fraction >= 0.5 * min_gap / spacing:
        raise DomainError(
            f"error fraction {config.error_fraction} must stay below half the "
            f"minimum gap ({0.5 * min_gap / spacing:.3g} spacings)"
        )

    n = geometry.n
    clean = end_to_end_summary(build_hamiltonian(geometry, coupling))

    model = config.noise_model
    per_gap = model in (NoiseModel.UNIFORM_PER_GAP, NoiseModel.GAUSSIAN_PER_GAP)
    uniform = model in (NoiseModel.UNIFORM_PER_SITE, NoiseModel.UNIFORM_PER_GAP)
    size = n - 1 if per_gap else n

    def perturb(draws):
        """Chains for a (..., N) stack of draws, and which break the ordering;
        a per-gap row holds 0 before its N - 1 draws, so its cumsum is the
        displacement of every site."""
        shifts = config.error_fraction * spacing * draws
        chains = positions + (np.cumsum(shifts, axis=-1) if per_gap else shifts)
        return chains, np.any(np.diff(chains) <= 0, axis=-1)

    def blocks():
        block = max(_EIGH_BLOCK_ELEMENTS // (n * n), 1)
        draws = np.zeros((min(block, config.samples), n))
        # one generator, loaded with each sample's state before its draws
        rng = np.random.default_rng(0)
        for lo in range(0, config.samples, block):
            rows = draws[: config.samples - lo]
            states = _pcg64_states(config.seed, lo, lo + len(rows))
            for row, state in zip(rows, states):
                rng.bit_generator.state = state
                row[-size:] = _draw(rng, uniform, size)
            chains, broken = perturb(rows)
            redraws = 0
            for i in np.flatnonzero(broken):
                rng.bit_generator.state = states[i]
                _draw(rng, uniform, size)  # replays the rejected draw
                for _ in range(_MAX_REDRAWS):
                    redraws += 1
                    rows[i, -size:] = _draw(rng, uniform, size)
                    chains[i], bad = perturb(rows[i])
                    if not bad:
                        break
                else:
                    raise DomainError(
                        f"sample {lo + i}: exceeded {_MAX_REDRAWS} redraws; "
                        "error fraction too large for this geometry"
                    )

            # f = sum_m v[far, m] v[0, m] e^{-i (E_m - E_0) t}, independent of
            # the eigenvector signs; |f| by hypot, which is how abs() of a
            # complex scalar computes it, so each sample matches its one-chain
            # evaluation.
            h, _ = _hamiltonian_matrices(chains, Topology.CHAIN, coupling)
            energies, vectors = _eigh(h)
            w = vectors[:, geometry.far_site - 1, :] * vectors[:, 0, :]
            e = energies - energies[:, :1]
            f = np.sum(w * np.exp(-1j * e * clean.t_peak), axis=-1)
            yield fidelity(np.hypot(f.real, f.imag)), redraws

    return clean, blocks()


def _report(config: DisorderConfig, clean, blocks) -> DisorderReport:
    """An ensemble's report: its ``blocks`` folded into running totals."""
    failures = rejected = total = 0
    for values, redraws in blocks:
        failures += int(np.count_nonzero(values < CLASSICAL_THRESHOLD))
        rejected += redraws
        # Every F = 1/2 + |f|/3 + |f|^2/6 lies in [1/2, 1], a whole number of
        # 2^-53: in that unit the total is an exact int whatever the blocks.
        total += sum((values * 2.0**53).astype(np.int64).tolist())
    return DisorderReport(
        failures=failures,
        failure_rate=failures / config.samples,
        # an int quotient is rounded once: the exact mean, to the nearest float
        mean_f_at_nominal_time=total / (config.samples << 53),
        samples=config.samples,
        seed=config.seed,
        rejected=rejected,
        t_nominal=clean.t_peak,
        clean_f_max=clean.f_max,
        error_fraction=config.error_fraction,
        noise_model=config.noise_model.value,
    )


def run_disorder(
    geometry: Geometry,
    coupling: CouplingSpec = DIPOLE,
    config: DisorderConfig = DisorderConfig(0.02, 1000),
) -> DisorderReport:
    """Failure-rate estimate for end-to-end transfer under placement noise.

    The clean geometry's peak time t_nominal is fixed first; each sample
    evolves |1> for exactly t_nominal on its perturbed chain. A block of
    samples (at most 4096 matrix elements) takes one vectorized pass for
    its generator states, one draw per sample, then one vectorized
    perturbation, one stacked build, one batched eigensolve and one
    vectorized evaluation. A draw that breaks the site ordering is redrawn
    from the same stream (and counted as rejected). Memory does not grow
    with the sample count, and the mean is the samples' exact mean, rounded
    once, whatever the block size.
    """
    return _report(config, *_ensemble(geometry, coupling, config))
