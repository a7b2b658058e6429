"""The ring Coulomb kernel against the per-pair gather/bincount
formulation it replaced, kept here as the oracle: forces must match
bit for bit, energies exactly, and the work accounting term for term."""

import contextlib

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.partition import block_partition
from repro.md.boundary import PeriodicBox, ReflectiveBox
from repro.md.forces import coulomb as coulomb_mod
from repro.md.forces.base import owner_counts, scatter_forces
from repro.md.forces.coulomb import CoulombForce, half_shell_pairs
from repro.md.system import AtomSystem
from repro.md.units import COULOMB_K

BOX = np.array([30.0, 30.0, 30.0])


def oracle_coulomb(system, boundary, min_distance, forces_out,
                   owner_range=None):
    """Gather the half-shell pair list, evaluate it pair by pair and
    scatter with ``bincount``; returns ``(energy, terms, per_atom)``."""
    n = system.n_atoms
    charged = system.charged
    m = len(charged)
    if m < 2:
        return 0.0, 0, np.zeros(n)
    ii, jj = half_shell_pairs(m)
    gi, gj = charged[ii], charged[jj]
    keep = system.movable[gi] | system.movable[gj]
    if owner_range is not None:
        lo, hi = owner_range
        keep &= (gi >= lo) & (gi < hi)
    gi, gj = gi[keep], gj[keep]
    if len(gi) == 0:
        return 0.0, 0, np.zeros(n)
    dr = boundary.displacement(system.positions[gi] - system.positions[gj])
    r2 = np.einsum("ij,ij->i", dr, dr)
    np.maximum(r2, min_distance**2, out=r2)
    r = np.sqrt(r2)
    qq = COULOMB_K * system.charges[gi] * system.charges[gj]
    coef = qq / (r2 * r)
    fvec = coef[:, None] * dr
    scatter_forces(forces_out, (gi, gj), (fvec, -fvec))
    return float(np.sum(qq / r)), len(gi), owner_counts(gi, n)


def build(seed, m, n_neutral, frozen_frac, overlap):
    rng = np.random.default_rng(seed)
    n = m + n_neutral
    s = AtomSystem(BOX)
    pos = rng.uniform(0.0, 30.0, (n, 3))
    if overlap and n >= 2:
        pos[1] = pos[0] + rng.uniform(-0.1, 0.1, 3)  # exercise the clamp
    charges = np.zeros(n)
    charged_at = rng.permutation(n)[:m]
    charges[charged_at] = rng.uniform(-2.0, 2.0, m)
    charges[charges == 0.0] = 1.0
    s.add_atoms("Na", pos, charges=charges)
    s.movable = rng.uniform(size=n) >= frozen_frac
    return s


def bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


#: block sizes that split m <= 64 rings into many blocks, plus the
#: production one
BLOCKS = st.sampled_from([1, 2, 5, coulomb_mod.BLOCK_ROWS])


@contextlib.contextmanager
def block_rows(n):
    saved = coulomb_mod.BLOCK_ROWS
    coulomb_mod.BLOCK_ROWS = n
    try:
        yield
    finally:
        coulomb_mod.BLOCK_ROWS = saved


@settings(max_examples=120, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    m=st.integers(2, 64),
    n_neutral=st.integers(0, 5),
    frozen_frac=st.sampled_from([0.0, 0.3, 0.7, 1.0]),
    periodic=st.booleans(),
    overlap=st.booleans(),
    parts=st.integers(1, 5),
    block=BLOCKS,
)
def test_property_ring_matches_bincount_oracle(
    seed, m, n_neutral, frozen_frac, periodic, overlap, parts, block
):
    with block_rows(block):
        check_against_oracle(
            seed, m, n_neutral, frozen_frac, periodic, overlap, parts
        )


def check_against_oracle(seed, m, n_neutral, frozen_frac, periodic,
                         overlap, parts):
    system = build(seed, m, n_neutral, frozen_frac, overlap)
    n = system.n_atoms
    boundary = PeriodicBox(BOX) if periodic else ReflectiveBox(BOX)
    force = CoulombForce(min_distance=0.5)

    got = np.zeros((n, 3))
    res = force.compute(system, boundary, None, got)
    want = np.zeros((n, 3))
    energy, terms, per_atom = oracle_coulomb(system, boundary, 0.5, want)
    assert np.array_equal(bits(got), bits(want))
    assert res.energy == energy
    assert res.terms == terms
    assert np.array_equal(bits(res.per_atom_work), bits(per_atom))

    acc = np.zeros((n, 3))
    total_energy = 0.0
    for lo, hi in block_partition(n, parts):
        part = np.zeros((n, 3))
        sub = force.restrict(lo, hi).compute(system, boundary, None, part)
        want_part = np.zeros((n, 3))
        e_part, t_part, w_part = oracle_coulomb(
            system, boundary, 0.5, want_part, owner_range=(lo, hi)
        )
        assert np.array_equal(bits(part), bits(want_part))
        assert sub.energy == e_part
        assert sub.terms == t_part
        assert np.array_equal(bits(sub.per_atom_work), bits(w_part))
        acc += part
        total_energy += sub.energy
    scale = max(1.0, float(np.abs(want).max()))
    assert np.allclose(acc, want, rtol=0.0, atol=1e-12 * scale)
    assert np.isclose(total_energy, energy, rtol=1e-12, atol=1e-12)


def test_ring_adds_onto_existing_forces():
    """The kernel accumulates into ``forces_out`` like the scatter did."""
    system = build(3, 9, 2, 0.0, False)
    boundary = ReflectiveBox(BOX)
    rng = np.random.default_rng(0)
    start = rng.normal(size=(system.n_atoms, 3))
    got, want = start.copy(), start.copy()
    CoulombForce().compute(system, boundary, None, got)
    oracle_coulomb(system, boundary, 0.5, want)
    assert np.array_equal(bits(got), bits(want))


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    m=st.integers(2, 40),
    n_neutral=st.integers(0, 3),
    frozen_frac=st.sampled_from([0.0, 0.5]),
    runs=st.integers(1, 3),
    block=BLOCKS,
)
def test_property_stacked_runs_match_scalar_runs(
    seed, m, n_neutral, frozen_frac, runs, block
):
    """One call on an ``(R, n, 3)`` stack equals R scalar calls: the
    ensemble engine's Coulomb path is this kernel."""
    with block_rows(block):
        check_stacked(seed, m, n_neutral, frozen_frac, runs)


def check_stacked(seed, m, n_neutral, frozen_frac, runs):
    system = build(seed, m, n_neutral, frozen_frac, False)
    rng = np.random.default_rng(seed)
    stack = system.positions + rng.normal(
        scale=0.5, size=(runs,) + system.positions.shape
    )
    force = CoulombForce()
    out = np.zeros_like(stack)
    ring = force.accumulate(
        stack, system.charges, system.movable,
        ReflectiveBox(np.stack([BOX] * runs)[:, None, :]), out,
    )
    for r in range(runs):
        system.positions = stack[r].copy()
        want = np.zeros_like(stack[r])
        res = force.compute(system, ReflectiveBox(BOX), None, want)
        assert np.array_equal(bits(out[r]), bits(want))
        if ring is None:
            assert res.terms == 0
            continue
        e_terms, per_atom = ring
        assert e_terms.sum(axis=1)[r] == res.energy
        assert e_terms.shape[-1] == res.terms
        assert np.array_equal(per_atom, res.per_atom_work)
