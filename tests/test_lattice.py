"""Lattices, mod-n quadratic modules, reflection orbits, and connectivity
certificates."""

import hashlib
import json
import os
import subprocess
import sys
from collections import Counter
from math import gcd, prod

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from selmerfq import DomainError, lattice
from selmerfq.lattice import (IntegralLattice, QuadraticModule, e8_gram,
                              hyperbolic_gram, orbit_decompose,
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


@pytest.mark.parametrize("d", [2, 3])
def test_standard_generators_sparse_units(d):
    lat, gens = standard_generators(d)
    assert all(np.count_nonzero(w) <= 3 and lat.q(w) in (1, -1)
               for w in gens)
    # 2 per hyperbolic block, 8 per -E8 block, one bridge per basis vector
    # outside the first hyperbolic block
    assert len(gens) == 2 * (2 * d - 2) + 8 * d + lat.rank - 2


def test_reflection_is_involution_and_preserves_q():
    lat, gens = standard_generators(2)
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
    lat, gens = standard_generators(2)
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
    lat, gens = standard_generators(2)
    mod = QuadraticModule(lat, 3)
    assert 3 ** mod.rank > lattice.BUDGET
    with pytest.raises(ValueError):
        orbit_decompose(mod, gens)


def test_sampling_connectivity_n2():
    mod = QuadraticModule(selmer_lattice(2), 2)
    rep = sampling_connectivity(mod, SplitMix64(35), pairs_per_class=25)
    assert rep.orbit_count == _sigma(2)
    assert rep.unresolved == []


def test_sampling_connectivity_composite_n():
    mod = QuadraticModule(selmer_lattice(2), 6)
    rep = sampling_connectivity(mod, SplitMix64(37), pairs_per_class=10)
    assert rep.orbit_count == _sigma(6)
    assert rep.unresolved == []


# sample reports at the default 100 pairs per class, keyed by (n, d, seed)
SAMPLE_REPORT_SHA256 = {
    (2, 2, 0): "537818f307250578c6c3d718a8bbd8b4388a61545cbf792a1a6bf6a824e55e90",
    (2, 2, 1): "f8087e42f421701fea7c5f105c84b4c516d57961101afb89f929a8100a5469b8",
    (2, 2, 2): "61951b074998f6ca2c892001545b7986f2276865e07ba5cb71b12db3b1b07d55",
    (3, 2, 0): "0e061354bdd689ff8b242a6a2400f2edffc132477339f2c4a9081209718ea0b6",
    (3, 2, 1): "3476e0da1dba301cb0c3583cf8620cd48e7b8a4aa365a48ff658672d02e05afd",
    (3, 2, 2): "bfd46edf21c597951f096d0f3dffef715c1b212cd92e120a9502add0c4086545",
    (2, 3, 0): "ef62c551afc82af7068a17b0d14cc2d9cc735f08cab96125c5ba20cba3cd119a",
    (2, 3, 1): "8d6bc1ce7492072cb0e8b27c8a48a8d1aa7b1e91e18ac6e11ccad130e650bbbe",
    (2, 3, 2): "e8cde8518ba63b94c5cc86c4a3b1fdcc2a9e4af7fb0d6adf9ec7627e50c01e7e",
}


@pytest.mark.parametrize("n,d,seed", sorted(SAMPLE_REPORT_SHA256))
def test_sampling_reports_pinned(n, d, seed):
    mod = QuadraticModule(selmer_lattice(d), n)
    text = json.dumps(sampling_connectivity(mod, SplitMix64(seed)).to_json(),
                      sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() \
        == SAMPLE_REPORT_SHA256[n, d, seed]


def test_class_vector_invariant_is_checked(monkeypatch):
    mod = QuadraticModule(selmer_lattice(2), 2)
    monkeypatch.setattr(QuadraticModule, "content_invariant",
                        lambda self, v: (1, 99))
    with pytest.raises(ValueError, match="has invariant"):
        lattice._random_class_vector(mod, 1, 0, SplitMix64(0))


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


# sweeps of 1 or 5 vectors end at every place in an orbit, and the audit
# and the buffer compaction run every 1 or 5 vectors found
_SMALL_BLOCKS = [1, 5]


def test_orbit_decompose_matches_union_find_e8_mod3(monkeypatch):
    module = QuadraticModule(IntegralLattice(e8_gram()), 3)
    gens = [np.eye(8, dtype=np.int64)[i] for i in range(8)]
    expected = _union_find_orbits(module, gens)
    for block in [lattice.BLOCK, *_SMALL_BLOCKS]:
        monkeypatch.setattr(lattice, "BLOCK", block)
        report = orbit_decompose(module, gens)
        assert report.orbit_count == 5
        assert _report_set(report) == expected


def test_orbit_decompose_matches_union_find_composite_n(monkeypatch):
    # U + U mod 6: dense generators with non-unit digits 2, 3, 4, and with
    # q(w) = 5, whose inverse is not 1
    module = QuadraticModule(_block_lattice(hyperbolic_gram(),
                                            hyperbolic_gram()), 6)
    gens = _random_unit_generators(module, 3, seed=2)
    assert any(int(x) in (2, 3, 4) for w in gens for x in w)
    assert {module.q(w) for w in gens} == {1, 5}
    expected = _union_find_orbits(module, gens)
    for block in [lattice.BLOCK, *_SMALL_BLOCKS]:
        monkeypatch.setattr(lattice, "BLOCK", block)
        assert _report_set(orbit_decompose(module, gens)) == expected


def test_orbit_decompose_matches_union_find_dense_generators():
    lat = _block_lattice(hyperbolic_gram(), hyperbolic_gram(), -e8_gram())
    module = QuadraticModule(lat, 2)
    gens = _random_unit_generators(module, 6, seed=0xDE5E)
    assert min(np.count_nonzero(w) for w in gens) > 1
    report = orbit_decompose(module, gens)
    assert _report_set(report) == _union_find_orbits(module, gens)


_BLOCKS = {"U": hyperbolic_gram(), "<2>": np.array([[2]])}


@settings(max_examples=40, deadline=None)
@given(blocks=st.lists(st.sampled_from(sorted(_BLOCKS)), min_size=1,
                       max_size=4).filter(
           lambda bs: 2 <= sum(len(_BLOCKS[b]) for b in bs) <= 4),
       n=st.integers(2, 7), count=st.integers(1, 3),
       seed=st.integers(0, 2 ** 32))
def test_orbit_decompose_matches_union_find_property(blocks, n, count, seed):
    # n^r <= 7^4: U and <2> blocks give digits above and below b w_i (the
    # floor divisions see negative operands) and, for n >= 3, q(w) with an
    # inverse other than 1; at n = 2 a <2> coordinate can have Gw = 0
    module = QuadraticModule(_block_lattice(*(_BLOCKS[b] for b in blocks)), n)
    gens = _random_unit_generators(module, count, seed)
    expected = _union_find_orbits(module, gens)
    for block in [lattice.BLOCK, *_SMALL_BLOCKS]:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(lattice, "BLOCK", block)
            report = orbit_decompose(module, gens)
        assert _report_set(report) == expected
        packed = [sum(x * n ** i for i, x in enumerate(rep))
                  for rep, _, _ in report.orbits]
        assert packed == sorted(packed)


@pytest.mark.parametrize("n", [127, 128])
def test_orbit_digit_store_around_int8(n):
    # U mod n: digits are stored as int8 below n = 128, where the content
    # t0 <= n fits int8 too, and as int32 from n = 128 on
    module = QuadraticModule(IntegralLattice(hyperbolic_gram()), n)
    gens = _random_unit_generators(module, 2, seed=n)
    report = orbit_decompose(module, gens)
    assert _report_set(report) == _union_find_orbits(module, gens)


def test_orbit_decompose_rejects_int32_overflow():
    # 2^16 vectors, but the packed v - b w reaches n^(r+1) = 2^32
    module = QuadraticModule(IntegralLattice([[2]]), 1 << 16)
    with pytest.raises(DomainError, match="overflows int32"):
        orbit_decompose(module, [np.array([1])])


def _wrong_qbar(t, qbar, n):
    return t, (qbar + 1) % (n // t)


def _mislabel(orig, target=(1,), fake=_wrong_qbar):
    """content_invariant answering fake(t, qbar, n) for the vector `target`
    (zero-padded); by default a wrong qbar for e_0."""
    def wrong(self, v):
        t, qbar = orig(self, v)
        pad = (0,) * (self.rank - len(target))
        if tuple(int(x) for x in v) == target + pad:
            return fake(t, qbar, self.n)
        return t, qbar
    return wrong


def test_orbit_audit_fires_on_wrong_invariant(monkeypatch):
    monkeypatch.setattr(QuadraticModule, "content_invariant",
                        _mislabel(QuadraticModule.content_invariant))
    with pytest.raises(ValueError, match="orbit 1 not invariant-homogeneous"):
        weyl_e8_orbits(3)


# at n = 6 the orbits of 2 e_0 and 3 e_0 are orbits 2 and 3, with invariants
# (2, 1) and (3, 1)
@pytest.mark.parametrize("target, fake, k", [
    # n / t = 1: only the test that t divides every digit sees this
    ((2,), lambda t, qbar, n: (n, 0), 2),
    # q(2 e_0) = 4 agrees, but every digit is divisible by t * 2
    ((2,), lambda t, qbar, n: (1, 4), 2),
    ((3,), _wrong_qbar, 3),
], ids=["t-too-large", "t-too-small", "wrong-qbar"])
def test_orbit_audit_fires_at_composite_n(monkeypatch, target, fake, k):
    monkeypatch.setattr(QuadraticModule, "content_invariant",
                        _mislabel(QuadraticModule.content_invariant,
                                  target, fake))
    with pytest.raises(ValueError,
                       match="orbit %d not invariant-homogeneous" % k):
        weyl_e8_orbits(6)


def test_orbit_audit_covers_vectors_every_cursor_passed(monkeypatch):
    # U mod 3 under e + f with q = 1 read as 2: v - 2 B(v, w) w is no
    # isometry and sends (1, 0), of q = 0, to (2, 1), of q = 2.  For BLOCK > 1
    # the orbit of (1, 0) is audited once, at its end, after a compaction
    # made room past (1, 0), which every cursor had swept; the audit must
    # still cover every vector found since the one before.
    orig = QuadraticModule.q

    def wrong(self, v):
        if tuple(int(x) % self.n for x in v) == (1, 1):
            return 2
        return orig(self, v)

    monkeypatch.setattr(QuadraticModule, "q", wrong)
    module = QuadraticModule(IntegralLattice(hyperbolic_gram()), 3)
    gens = [np.array([1, 1]), np.array([1, 2])]
    for block in [lattice.BLOCK, *_SMALL_BLOCKS]:
        monkeypatch.setattr(lattice, "BLOCK", block)
        with pytest.raises(ValueError,
                           match="orbit 1 not invariant-homogeneous"):
            orbit_decompose(module, gens)


def test_orbit_sizes_check_fires_on_a_stale_mark(monkeypatch):
    # the seen-bitmap starts with its last vector marked, so the orbit that
    # holds it comes out one short, and so does the sum of the sizes
    class StaleMark:
        def __getattr__(self, name):
            return getattr(np, name)

        def ones(self, shape, dtype):
            out = np.ones(shape, dtype)
            out[-1] = False
            return out

    monkeypatch.setattr(lattice, "np", StaleMark())
    with pytest.raises(ValueError,
                       match="orbit sizes do not sum to n\\^r = 256"):
        weyl_e8_orbits(2)


def test_reflection_word_check_fires(monkeypatch):
    # the empty word leaves x where it is, not at y
    monkeypatch.setattr(lattice, "_connect", lambda module, x, y, rng: [])
    module = QuadraticModule(selmer_lattice(2), 3)
    with pytest.raises(ValueError, match="reflection word maps .* not to .* "
                       "mod 3"):
        sampling_connectivity(module, SplitMix64(0), pairs_per_class=2)


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


# sorted orbit sizes of (Z/n)^8 under W(E8), and the SHA-256 of
# json.dumps(weyl_e8_orbits(n).to_json(), sort_keys=True), which also pins
# the orbit order, the representatives, the invariants and the generator
# q-values
E8_ORBIT_SIZES = {
    2: [1, 120, 135],
    3: [1, 240, 1920, 2160, 2240],
    4: [1, 120, 135, 240, 2160, 6720, 8640, 15120, 15120, 17280],
    5: [1, 240, 240, 2160, 2160, 6720, 6720, 17280, 17280, 30240, 48384,
        60480, 60480, 69120, 69120],
    6: [1, 120, 135, 240, 240, 1920, 2160, 2160, 2240, 6720, 13440, 15120,
        15120, 17280, 17280, 30240, 60480, 69120, 80640, 90720, 138240,
        138240, 151200, 161280, 181440, 241920, 241920],
}
E8_REPORT_SHA256 = {
    2: "39fd1c6359505a800fc7556b726f93ea4208f344c3bb57f0981bde32e00beb57",
    3: "a248b576358b2104908aa1b5fc9f987a588717a40a090523be3100310dc70b24",
    4: "b92a992e5def26ee0e7a235e8556d3a41cd48782703a6dc2efe6f34466c8af2e",
    5: "1ed8a3d9516a94c6122f4981ab496ac3eaf979c7a2b463a1c960a6a6e86700ec",
    6: "743299b50d5dd09b8e185d3c5f2bbab6903f58f6d73b3501fdaccccc6181b4b5",
}


def test_weyl_e8_orbit_count_n7_haiman():
    # the largest orbits of (Z/7)^8 hold 604800 vectors; for n prime to the
    # Coxeter number 30 the count is prod (n + e_i) / |W(E8)| over the
    # exponents e_i (Haiman 1994, 7.4)
    exponents = [1, 7, 11, 13, 17, 19, 23, 29]
    order = 696729600  # |W(E8)|
    report = weyl_e8_orbits(7)
    expected = prod(7 + e for e in exponents) // order
    assert expected == 39
    assert report.orbit_count == expected
    assert sum(size for _, size, _ in report.orbits) == 7 ** 8


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_weyl_e8_orbit_sizes_pinned(n):
    report = weyl_e8_orbits(n)
    sizes = sorted(size for _, size, _ in report.orbits)
    assert report.orbit_count == len(E8_ORBIT_SIZES[n])
    assert sizes == E8_ORBIT_SIZES[n]
    assert sum(sizes) == n ** 8
    text = json.dumps(report.to_json(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == E8_REPORT_SHA256[n]


# generator sweeps of orbit_decompose under the module's BLOCK = 16384
E8_SWEEPS = {2: 128, 3: 286, 5: 1144, 6: 2437}


def _record_sweeps(monkeypatch):
    """The length of every `unseen.take` in orbit_decompose, one per
    generator sweep: the vectors that sweep reflects."""
    lengths = []

    class Unseen(np.ndarray):
        def take(self, indices):
            lengths.append(len(indices))
            return np.asarray(self).take(indices)

    class Numpy:  # numpy, but `ones` (the `unseen` mask) counts its takes
        def __getattr__(self, name):
            return getattr(np, name)

        def ones(self, *args, **kwargs):
            return np.ones(*args, **kwargs).view(Unseen)

    monkeypatch.setattr(lattice, "np", Numpy())
    return lengths


@pytest.mark.parametrize("n", sorted(E8_SWEEPS))
def test_weyl_e8_orbit_sweeps_pinned(monkeypatch, n):
    # each vector meets each of the 8 simple reflections exactly once: a
    # cursor that re-sweeps or skips a vector changes the sum
    lengths = _record_sweeps(monkeypatch)
    weyl_e8_orbits(n)
    assert (len(lengths), sum(lengths)) == (E8_SWEEPS[n], 8 * n ** 8)


def test_exhaustive_d2_orbit_sweeps_pinned(monkeypatch):
    lat, gens = standard_generators(2)
    module = QuadraticModule(lat, 2)
    assert len(lattice._usable(module, gens)) == 36
    lengths = _record_sweeps(monkeypatch)
    orbit_decompose(module, gens)
    assert (len(lengths), sum(lengths)) == (2456, 36 * 2 ** 20)
