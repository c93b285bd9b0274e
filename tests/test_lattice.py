"""Lattices, mod-n quadratic modules, reflection orbits, and connectivity
certificates."""

import os
import subprocess
import sys
from collections import Counter
from math import gcd

import numpy as np
import pytest
import sympy

from selmerfq import lattice
from selmerfq.lattice import (IntegralLattice, QuadraticModule, e8_gram,
                              e8_lattice, hyperbolic_gram, orbit_decompose,
                              sampling_connectivity, selmer_lattice,
                              standard_generators, weyl_e8_orbits)
from selmerfq.rng import SplitMix64


def _sigma(n):
    return sum(m for m in range(1, n + 1) if n % m == 0)


def test_e8_gram_shape():
    g = e8_gram()
    assert g.shape == (8, 8)
    assert np.array_equal(g, g.T)
    assert all(g[i, i] == 2 for i in range(8))
    assert sympy.Matrix(g).det() == 1


def test_e8_root_count():
    # the W(E8) orbit of the simple root e_0 is the 240 roots, and they stay
    # distinct mod 3: a nonzero vector of 3E8 has norm >= 18, while two
    # roots differ by a vector of norm <= 8
    zero, roots = weyl_e8_orbits(3).orbits[:2]
    assert zero[:2] == ((0,) * 8, 1)
    assert roots[:2] == ((1,) + (0,) * 7, 240)


def test_selmer_lattice_even_unimodular():
    for d in (2, 3):
        lat = selmer_lattice(d)
        assert lat.rank == 12 * d - 4
        assert abs(sympy.Matrix(lat.gram).det()) == 1
        for i in range(lat.rank):
            assert lat.gram[i, i] % 2 == 0
    with pytest.raises(ValueError):
        selmer_lattice(1)


def test_reflection_is_involution_and_preserves_q():
    lat, gens = standard_generators(2, SplitMix64(30))
    for n in (2, 3, 5):
        mod = QuadraticModule(lat, n)
        rng = SplitMix64(n)
        usable = [g for g in gens
                  if np.gcd(mod.q(g), n) == 1][:6]
        for w in usable:
            for _ in range(5):
                v = tuple(rng.below(n) for _ in range(lat.rank))
                rv = mod.reflect(w, v)
                assert mod.reflect(w, rv) == tuple(x % n for x in v)
                assert mod.q(rv) == mod.q(v)


def test_content_invariant_is_reflection_invariant():
    lat, gens = standard_generators(2, SplitMix64(31))
    mod = QuadraticModule(lat, 6)
    rng = SplitMix64(32)
    usable = [g for g in gens if np.gcd(mod.q(g), 6) == 1][:8]
    for _ in range(40):
        v = tuple(rng.below(6) for _ in range(lat.rank))
        inv = mod.content_invariant(v)
        for w in usable:
            assert mod.content_invariant(mod.reflect(w, v)) == inv


def test_predicted_class_counts():
    lat = selmer_lattice(2)
    for n in range(1, 13):
        mod = QuadraticModule(lat, n)
        assert len(mod.predicted_classes()) == _sigma(n)


def test_weyl_e8_orbit_counts_small_n():
    assert weyl_e8_orbits(1).orbit_count == 1
    assert weyl_e8_orbits(2).orbit_count == 3
    assert weyl_e8_orbits(3).orbit_count == 5


def test_orbit_decompose_budget():
    # 3^20 vectors, past the fixed budget of 2^26
    lat, gens = standard_generators(2, SplitMix64(33))
    mod = QuadraticModule(lat, 3)
    assert 3 ** mod.rank > lattice.BUDGET
    with pytest.raises(ValueError):
        orbit_decompose(mod, gens)


def test_sampling_connectivity_n2():
    lat, gens = standard_generators(2, SplitMix64(34))
    mod = QuadraticModule(lat, 2)
    rep = sampling_connectivity(mod, SplitMix64(35), pairs_per_class=25)
    assert rep.orbit_count == _sigma(2)
    assert rep.unresolved == []


def test_sampling_connectivity_composite_n():
    lat, gens = standard_generators(2, SplitMix64(36))
    mod = QuadraticModule(lat, 6)
    rep = sampling_connectivity(mod, SplitMix64(37), pairs_per_class=10)
    assert rep.orbit_count == _sigma(6)
    assert rep.unresolved == []


def _block_lattice(*blocks):
    r = sum(b.shape[0] for b in blocks)
    g = np.zeros((r, r), dtype=np.int64)
    pos = 0
    for b in blocks:
        k = b.shape[0]
        g[pos:pos + k, pos:pos + k] = b
        pos += k
    return IntegralLattice(g)


def _random_unit_generators(module, count, seed):
    """Seeded dense vectors mod n whose q is a unit."""
    rng = SplitMix64(seed)
    out = []
    while len(out) < count:
        w = np.array([rng.below(module.n) for _ in range(module.rank)],
                     dtype=np.int64)
        if gcd(module.q(w), module.n) == 1:
            out.append(w)
    return out


def _union_find_orbits(module, gens):
    """Oracle: the orbit partition by union-find over scalar
    QuadraticModule.reflect on every vector, as a set of
    (representative = minimum packed index, size, content invariant)."""
    n, r = module.n, module.rank
    total = n ** r
    parent = list(range(total))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def digits(i):
        return tuple(i // n ** k % n for k in range(r))

    usable = [w for w in gens if gcd(module.q(w), n) == 1]
    for i in range(total):
        v = digits(i)
        for w in usable:
            j = sum(x * n ** k for k, x in enumerate(module.reflect(w, v)))
            a, b = find(i), find(j)
            if a != b:
                parent[max(a, b)] = min(a, b)
    sizes = Counter(find(i) for i in range(total))
    return {(digits(root), size, module.content_invariant(digits(root)))
            for root, size in sizes.items()}


def _report_set(report):
    return {(tuple(rep), size, tuple(inv)) for rep, size, inv in report.orbits}


def test_orbit_decompose_matches_union_find_e8_mod3():
    module = QuadraticModule(e8_lattice(), 3)
    gens = [np.eye(8, dtype=np.int64)[i] for i in range(8)]
    report = orbit_decompose(module, gens)
    assert report.orbit_count == 5
    assert _report_set(report) == _union_find_orbits(module, gens)


def test_orbit_decompose_matches_union_find_composite_n():
    # U + U mod 6: dense generators with non-unit digits 2, 3, 4, and with
    # q(w) = 5, whose inverse is not 1
    module = QuadraticModule(_block_lattice(hyperbolic_gram(),
                                            hyperbolic_gram()), 6)
    gens = _random_unit_generators(module, 3, seed=2)
    assert any(int(x) in (2, 3, 4) for w in gens for x in w)
    assert {module.q(w) for w in gens} == {1, 5}
    report = orbit_decompose(module, gens)
    assert _report_set(report) == _union_find_orbits(module, gens)


def test_orbit_decompose_matches_union_find_dense_generators():
    lat = _block_lattice(hyperbolic_gram(), hyperbolic_gram(), -e8_gram())
    module = QuadraticModule(lat, 2)
    gens = _random_unit_generators(module, 6, seed=0xDE5E)
    assert min(np.count_nonzero(w) for w in gens) > 1
    report = orbit_decompose(module, gens)
    assert _report_set(report) == _union_find_orbits(module, gens)


def _mislabel(orig):
    """content_invariant with a wrong qbar for the vector e_0."""
    def wrong(self, v):
        t, qbar = orig(self, v)
        if tuple(int(x) for x in v) == (1,) + (0,) * (self.rank - 1):
            return t, (qbar + 1) % (self.n // t)
        return t, qbar
    return wrong


def test_orbit_audit_fires_on_wrong_invariant(monkeypatch):
    monkeypatch.setattr(QuadraticModule, "content_invariant",
                        _mislabel(QuadraticModule.content_invariant))
    with pytest.raises(ValueError, match="orbit 1 not invariant-homogeneous"):
        weyl_e8_orbits(3)


def test_orbit_audit_survives_python_O():
    script = ("from selmerfq import lattice\n"
              "orig = lattice.QuadraticModule.content_invariant\n"
              "def wrong(self, v):\n"
              "    t, qbar = orig(self, v)\n"
              "    if tuple(int(x) for x in v) == (1,) + (0,) * 7:\n"
              "        return t, (qbar + 1) % (self.n // t)\n"
              "    return t, qbar\n"
              "lattice.QuadraticModule.content_invariant = wrong\n"
              "try:\n"
              "    lattice.weyl_e8_orbits(3)\n"
              "except ValueError as exc:\n"
              "    print(exc)\n"
              "else:\n"
              "    raise SystemExit('no error')\n")
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    assert "orbit 1 not invariant-homogeneous" in proc.stdout


# sorted orbit sizes of (Z/n)^8 under W(E8)
E8_ORBIT_SIZES = {
    4: [1, 120, 135, 240, 2160, 6720, 8640, 15120, 15120, 17280],
    5: [1, 240, 240, 2160, 2160, 6720, 6720, 17280, 17280, 30240, 48384,
        60480, 60480, 69120, 69120],
    6: [1, 120, 135, 240, 240, 1920, 2160, 2160, 2240, 6720, 13440, 15120,
        15120, 17280, 17280, 30240, 60480, 69120, 80640, 90720, 138240,
        138240, 151200, 161280, 181440, 241920, 241920],
}


@pytest.mark.parametrize("n", [4, 5, 6])
def test_weyl_e8_orbit_sizes_pinned(n):
    report = weyl_e8_orbits(n)
    sizes = sorted(size for _, size, _ in report.orbits)
    assert report.orbit_count == len(E8_ORBIT_SIZES[n])
    assert sizes == E8_ORBIT_SIZES[n]
    assert sum(sizes) == n ** 8
