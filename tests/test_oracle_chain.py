"""The stabilizer-chain table against the bytes closure it replaced.

``ovoid_reference`` keeps the closure of the generators' ``bytes``
permutations, its ascending keys and a power walk of each key, and
``rank_keys`` maps each rank of a chain to its ``bytes`` permutation.  Under
both moduli of GF(8), the chain's ranks must map to the same keys, with the
same order and inverse for every key; the rank normalizers and centralizers
must be the reference full scans, member for member, mapped through
``rank_keys``, also for subgroups given by their members alone (W, N(W),
N(V) and a four-group of W's centre); and the partition reports must be
equal, the reference walking the conjugates of the classes the certificate
dug.  The chain's sift round-trips every rank, at q = 8 through
the byte keys and at q = 32 through the base images alone.  The partition certificate must
give the frozenset walk's report while the partition holds, and its counts
and coverage, with no claim on the cover, on classes that break it; a
normalizer short of a member and a cyclic class that is not TI fail it, and
at q = 32 it holds under three moduli; there, a class short of its
elements leaves them missing, with no census.  It proves N(W) = G_{b0}
and W's TI from W's one fixed point (``_normalizer_of_w``), permuting W's
largest rank once; N(W) is the rank range range(N1 N2), which must equal the
normalizer scan member for member at q = 8 under both moduli and at q = 32,
and the report keeps it as that range.  A W that breaks a premise of that
proof (an order that is no power of 2, a rank past N1 N2, a second fixed
point, a member that H1 conjugates out of it) fails the certificate and
``verify``, and so does a member that moves W's fixed point; a chain
without the premises N1 = N0 - 1 and N2 odd refuses the proof.  It makes
one scan per generator of each cyclic class's normalizer (3 in all at
q = 8, 4 at q = 32), none for N(W) and none to prove W TI.  Whenever the
proof holds (for W and Z(W)), every g that conjugates a nontrivial member
into the group normalizes it; a normalizer of W one member short fails the
certificate.  ``unitriangular`` ranks only the 2m of W's generators that
the chain does not keep.  Rank products and the ranks of
matrices must agree with the byte keys.  Point images by table lookups must
equal those by field arithmetic, rank products the composed permutations,
and a power walker's walk the cyclic subgroup; neither keeps an order byte.
The order census is the reference power pass whatever walks (``cycle``, the
partition, ``find_cyclic_subgroup``) ran before it.  ``find_cyclic_subgroup``
refuses an order that does not divide |G| before any walk and walks no rank
below N1 N2 for one that does not divide N1 N2 (Lagrange); a full
census is one walker call that searches its order bytes once per hole and
walks each hole once, writing k into a walk's bytes and fixing up the powers
whose order is not k, and the census counted by its hints is every byte's
count, refusing what the scan of every byte refuses.  The census read off a
certified partition is the power pass's, at q = 32 the closed forms', with
no order byte allocated; a failed certificate reads none, and ``verify``
then reports the power pass.  ``order`` walks one cycle and keeps nothing.
At q = 32 the torus
T = <d(lam)> is its own centralizer and has a normalizer of order 2 |T|.
"""

import json
from collections import Counter
from copy import copy
from math import gcd
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

import szq.oracle
from ovoid_reference import (
    ReferenceOvoidTable,
    rank_keys,
    ref_centralizer,
    ref_normalizer,
    ref_verify_partition,
)
from szq.cli import main
from szq.field import Field
from szq.group import make_params, make_w
from szq.mat4 import Mat4
from szq.oracle import (
    OrderNotFoundError,
    StabilizerChain,
    SubgroupHandle,
    SubgroupNotFoundError,
    _is_ti,
    _normalizer_of_w,
    _point_image,
    _power_fixups,
    centralizer,
    cyclic_subgroup,
    empirical_order_stats,
    find_cyclic_subgroup,
    normalizer,
    unitriangular,
    verify_partition,
)
from szq.orderstats import OrderStats, Spectrum, nse_closed_form, spectrum_closed_form


def _pair(params, field, table=None):
    if table is None:
        table = StabilizerChain(params, field)
    keys, ref = rank_keys(table), ReferenceOvoidTable(params, field)
    # The census by rank twice: the reference's power walk of each key, and
    # a fresh chain's orders() with no walk before it.
    census = bytes(ref.orders[ref.position[key]] for key in keys)
    return SimpleNamespace(params=params, table=table, keys=keys, reference=ref,
                           census=census, fresh=StabilizerChain(params, field).orders())


@pytest.fixture(scope="module")
def pair_0xb(sz8):
    return _pair(sz8.params, sz8.field, sz8.table)


@pytest.fixture(scope="module")
def pair_0xd(params8):
    return _pair(params8, Field(1, modulus=0xd))


@pytest.fixture(params=["0xb", "0xd"])
def pair(request):
    return request.getfixturevalue(f"pair_{request.param}")


def test_the_chain_has_the_closure_s_keys(pair):
    keys, ref = pair.keys, pair.reference
    assert len(keys) == len(set(keys)) == ref.size == 29120
    assert set(keys) == ref.keys
    assert keys[pair.table.identity] == ref.identity


def test_every_key_has_the_same_order_and_inverse(pair):
    table, keys, ref = pair.table, pair.keys, pair.reference
    orders, rank_of = table.orders(), {k: r for r, k in enumerate(keys)}
    ref_keys, ref_orders, ref_inverses = ref.sorted_keys, ref.orders, ref.inverses
    for r, key in enumerate(keys):
        i = ref.position[key]
        assert orders[r] == ref_orders[i]
        assert table.mul(r, rank_of[ref_keys[ref_inverses[i]]]) == table.identity


def _class(table, name):
    """(subgroup handle, an element) for a partition class of Sz(8), as ranks."""
    if name == "w":
        return unitriangular(table), table.rank(make_w(table.field.one, table.field.zero))
    h = find_cyclic_subgroup(table, getattr(make_params(1), name))
    return h, h.cyclic_generator


def _keys(pair, ranks):
    """Ranks mapped to the reference's keys."""
    return frozenset(pair.keys[r] for r in ranks)


def _ref_normalizer(pair, sub):
    """The reference's normalizer of a subgroup handle of ranks."""
    x = sub.cyclic_generator
    return ref_normalizer(pair.reference, _keys(pair, sub.members),
                          None if x is None else pair.keys[x])


def _assert_scans_agree(pair, sub, x):
    chain, ref = pair.table, pair.reference
    assert _keys(pair, normalizer(chain, sub).members) == _ref_normalizer(pair, sub)
    assert _keys(pair, centralizer(chain, x).members) == ref_centralizer(ref, pair.keys[x])


@pytest.mark.parametrize("name", ["u1", "u2", "v", "w"])
def test_normalizers_and_centralizers_agree(pair, name):
    _assert_scans_agree(pair, *_class(pair.table, name))


def _members_only(chain, name):
    """A subgroup of Sz(8) as its members alone, with no cyclic generator."""
    w = unitriangular(chain)
    if name == "w":
        return w
    if name == "n(w)":
        return SubgroupHandle(normalizer(chain, w).members)
    if name == "n(v)":
        v = find_cyclic_subgroup(chain, make_params(1).v)
        return SubgroupHandle(normalizer(chain, v).members)
    f = chain.field  # the four-group {1, w(1, 0)^2, w(2, 0)^2, their product}
    x, y = (chain.rank(make_w(f.element(a), f.zero)) for a in (1, 2))
    x2, y2 = chain.mul(x, x), chain.mul(y, y)
    return SubgroupHandle(frozenset([chain.identity, x2, y2, chain.mul(x2, y2)]))


@pytest.mark.parametrize("name, order, n_order", [
    ("w", 64, 448), ("n(w)", 448, 448), ("n(v)", 14, 14), ("four-group", 4, 64)])
def test_normalizers_of_subgroups_given_by_their_members_agree(pair, name, order, n_order):
    # None of these brings a cyclic generator, so each normalizer
    # intersects the scans of a generating set.
    sub = _members_only(pair.table, name)
    n = normalizer(pair.table, sub)
    assert (sub.order, n.order) == (order, n_order)
    assert _keys(pair, n.members) == _ref_normalizer(pair, sub)


@settings(max_examples=15, deadline=None)
@given(r=st.integers(0, 29119))
def test_the_scans_of_a_random_element_agree_with_the_full_scans(pair_0xb, pair_0xd, r):
    # C(x) and N(<x>) for any x, the identity and the involutions included.
    for pair in (pair_0xb, pair_0xd):
        chain = pair.table
        _assert_scans_agree(pair, cyclic_subgroup(chain, r, chain.orders()[r]), r)


def _walked(pair, report):
    """The reference's report for the classes that ``report``'s certificate
    dug, mapped to keys."""
    classes = {name: _keys(pair, h.members) for name, h in report.classes.items()}
    return ref_verify_partition(pair.reference, pair.params, classes)


def test_the_partition_reports_agree(pair):
    report = verify_partition(pair.table)
    assert report == _walked(pair, report)


@pytest.mark.parametrize("change", ["none", "dropped-move", "v-of-order-4",
                                    "w-as-a-four-group"])
def test_the_generator_walk_matches_the_frozenset_walk(pair, change, monkeypatch):
    # The certificate against the reference walk of frozenset orbits of the
    # same classes: the same report while the partition holds, and the same
    # counts and coverage, with no claim on the cover, for classes that
    # break it.
    table, params = pair.table, pair.params
    w10, w01, torus, weyl = table.generators
    f, w = table.field, None
    if change == "dropped-move":  # generators that span the Borel subgroup only
        table = copy(table)
        table.generators = [w10, w01, torus]
        table.generator_ranks = table.generator_ranks[:3]
    elif change == "v-of-order-4":  # cyclic conjugates that share their squares
        find = szq.oracle.find_cyclic_subgroup
        monkeypatch.setattr(szq.oracle, "find_cyclic_subgroup",
                            lambda t, k: find(t, 4 if k == params.v else k))
    elif change == "w-as-a-four-group":
        # Four-groups in the centre of W meet in involutions.
        r1, r2 = (table.rank(make_w(f.zero, f.element(b))) for b in (1, 2))
        w = SubgroupHandle(frozenset([table.identity, r1, r2, table.mul(r1, r2)]))
    report = verify_partition(table, w)
    walked = _walked(pair, report)
    if change == "dropped-move":
        # W's TI check reads no generator of the chain, and ``unitriangular``
        # takes only the ranks of w(1, 0) and w(0, 1) from it.
        assert report == verify_partition(pair.table) == walked
        assert report.passed
    elif change == "none":
        assert report == walked
        assert report.passed
    else:
        assert (report.multiply_covered, report.missing) == (None, None)
        assert walked.multiply_covered > 0
        assert not report.passed
    if change == "v-of-order-4":
        assert (report.measured, report.coverage) == (walked.measured, walked.coverage)
    elif change == "w-as-a-four-group":
        # d(lam) conjugates the four-group off itself, so N(W) is not proved
        # and is taken as the identity alone: n_w is |G| where the walk
        # counts 455 conjugates.  The cyclic classes' counts are the walk's.
        r, w = report.measured, walked.measured
        assert (w.n_w, w.n_u1, w.n_u2, w.n_v) == (455, r.n_u1, r.n_u2, r.n_v)
    want = {"v-of-order-4": ((65, 560, 1456, 1820), 22099),
            "w-as-a-four-group": ((29120, 560, 1456, 2080), 112384)}
    m = report.measured
    assert ((m.n_w, m.n_u1, m.n_u2, m.n_v), report.coverage) == \
        want.get(change, ((65, 560, 1456, 2080), 29119))


def _shorten_n_u1(pair, monkeypatch):
    """Make ``normalizer`` drop one member of N(U1) outside U1, for U1 as
    ``find_cyclic_subgroup`` digs it on any chain of the pair's field."""
    u1, real = find_cyclic_subgroup(pair.table, pair.params.u1), szq.oracle.normalizer

    def short(chain, sub):
        n = real(chain, sub)
        if sub.members == u1.members:
            return SubgroupHandle(n.members - {max(n.members - sub.members)})
        return n

    monkeypatch.setattr(szq.oracle, "normalizer", short)


def _count_scans(monkeypatch):
    """One entry for each ``_transporter`` scan made from now on."""
    scans, real = [], szq.oracle._transporter
    monkeypatch.setattr(szq.oracle, "_transporter", lambda *args: scans.append(1) or real(*args))
    return scans


def test_the_certificate_makes_one_scan_per_normalizer_generator(pair, monkeypatch):
    # One scan each for N(U1), N(U2) and N(V): 3 scans.  N(W) and W's TI
    # are proved from W's one fixed point, with no scan, and no centralizer
    # is taken.
    scans, calls = _count_scans(monkeypatch), []
    monkeypatch.setattr(szq.oracle, "centralizer", lambda *args: calls.append(args))
    assert verify_partition(pair.table).passed
    assert (len(scans), calls) == (3, [])


def _conjugate(chain, members, g):
    """The ranks of g^-1 h g ("first g^-1, then h, then g") for h in members."""
    g_inverse = chain.cycle(g)[-1] if g != chain.identity else g
    return frozenset(chain.mul(chain.mul(g_inverse, r), g) for r in members)


def _ti_corpus(chain):
    """By name, subgroups of Sz(8) as their members alone: W, its conjugate
    by tau, its centre Z(W) = {w(0, b)}, a four-group of Z(W), <w(0, 1)>,
    the trivial group, and the first conjugate N(W)^U0[a] whose largest rank
    is a 2-element, which fixes one point only, not b0: the conjugate is its
    own normalizer and every member fixes that point, and its order is no
    power of 2."""
    f, one = chain.field, chain.identity
    w, tau = unitriangular(chain), chain.generator_ranks[3]
    z = [chain.rank(make_w(f.zero, f.element(b))) for b in range(8)]
    n_w = normalizer(chain, w).members
    n1n2 = len(chain.orbits[1]) * len(chain.orbits[2])
    stabilizers = (_conjugate(chain, n_w, a * n1n2) for a in range(len(chain.orbits[0])))
    return {
        "w": w,
        "w^tau": SubgroupHandle(_conjugate(chain, w.members, tau)),
        "z(w)": SubgroupHandle(frozenset(z)),
        "four-group": SubgroupHandle(frozenset([one, z[1], z[2], chain.mul(z[1], z[2])])),
        "<t>": SubgroupHandle(frozenset([one, z[1]])),
        "1": SubgroupHandle(frozenset([one])),
        "n(w)^g": SubgroupHandle(next(s for s in stabilizers
                                      if chain.order(max(s)) in (2, 4))),
    }


@pytest.mark.parametrize("name", ["w", "w^tau", "z(w)", "four-group", "<t>", "1", "n(w)^g"])
def test_a_ti_verdict_is_never_wrong(pair, name):
    # One-sided: when the fixed-point proof (``_normalizer_of_w``) proves
    # N(H) = G_{b0}, the normalizer scan agrees and every g that conjugates a
    # nontrivial member of H into H normalizes H (``_transporter`` finds
    # them all), so two distinct conjugates of H meet only in the identity.
    # W and Z(W) are proved TI; W^tau is TI, but it fixes a point other than
    # b0, so the proof refuses it; a four-group of Z(W) meets its conjugates
    # by d(lam), and two conjugates of N(W) meet in a conjugate of <d(lam)>.
    chain = pair.table
    h = _ti_corpus(chain)[name]
    proved = _normalizer_of_w(chain, h)
    if proved is not None:
        n = normalizer(chain, h).members
        assert n == frozenset(proved.members)
        for x in h.members - {chain.identity}:
            assert set(szq.oracle._transporter(chain, x, h.members)) <= n
    assert (proved is not None) == (name in ("w", "z(w)"))


def test_w_s_ti_check_makes_no_scan_and_no_walk(pair, monkeypatch):
    # W's TI is proved with N(W), from W's one fixed point.
    chain = pair.table
    w, n12 = unitriangular(chain), len(chain.orbits[1]) * len(chain.orbits[2])

    def refused(*args, **kwargs):
        raise AssertionError("the TI check of a 2-group scans or walks")

    for name in ("_transporter", "centralizer", "_walk"):
        monkeypatch.setattr(szq.oracle, name, refused)
    assert _normalizer_of_w(chain, w) == SubgroupHandle(range(n12))


def test_a_normalizer_short_of_a_member_fails_the_certificate(pair, monkeypatch):
    # |N(U1)| = 51 divides no |G| = 29120, so the index is no count of
    # conjugates and the certificate claims nothing, no census either.
    _shorten_n_u1(pair, monkeypatch)
    report = verify_partition(pair.table)
    assert report.normalizers["u1"].order == 51
    assert (report.multiply_covered, report.missing) == (None, None)
    assert report.census is None
    assert not report.passed


def test_two_classes_of_one_order_fail_the_certificate(pair, monkeypatch):
    # U2 handed in as the v class too: every index is an integer and U2 is
    # TI, so the pairwise-coprime orders are the one check that fails, and
    # the certificate claims nothing, no census either.
    params, find = pair.params, szq.oracle.find_cyclic_subgroup
    monkeypatch.setattr(szq.oracle, "find_cyclic_subgroup",
                        lambda t, k: find(t, params.u2 if k == params.v else k))
    report = verify_partition(pair.table)
    assert report.classes["v"].members == report.classes["u2"].members
    assert (report.multiply_covered, report.missing, report.census) == (None, None, None)
    assert not report.passed


def test_a_normalizer_of_w_short_of_a_member_fails_the_certificate(pair, monkeypatch):
    # The proved N(W) one member short, its largest rank, which is not in W:
    # |N(W)| = 447 divides no |G| = 29120, so the index is no count of
    # conjugates and the certificate claims nothing.
    chain = pair.table
    w = unitriangular(chain)
    n = _normalizer_of_w(chain, w)
    short = SubgroupHandle(range(len(n.members) - 1))
    assert n.members[-1] not in w.members and short.order == 447
    monkeypatch.setattr(szq.oracle, "_normalizer_of_w", lambda c, sub: short)
    report = verify_partition(chain)
    assert report.normalizers["w"] == short
    assert (report.multiply_covered, report.missing, report.census) == (None, None, None)
    assert not report.passed


def _conjugacy_class(chain, r, gens):
    """The ranks conjugate to r in the group that the ranks gens generate."""
    rs, grown = set(), {r}
    while grown != rs:
        rs = grown
        grown = rs.union(*(_conjugate(chain, rs, g) for g in gens))
    return rs


def _w_mutant(chain, premise):
    """W with a premise of the fixed-point proof of N(W) broken: W and the
    classes in H1 of the first two powers of d(lam) whose ranks all lie
    below W's largest, 192 ranks that H1 normalizes ("power of 2"); W^tau,
    whose nontrivial ranks lie past N1 N2 ("in G_b0"); W and the class in
    H1 of a rank of G_{b0} past W's that fixes a second point, 128 ranks
    that H1 normalizes ("one fixed point"); W short of its largest member,
    which H1 conjugates another member onto ("normalized by H1"); the
    cyclic <w(0, 1)>, which d(lam) conjugates off itself ("<t>", a class of
    prime order that is TI by Lagrange); the identity and the class of
    w(x, 0) under <d(lam)>, which only w(1, 0) conjugates off it
    ("w(1, 0)")."""
    w, n12, f = unitriangular(chain), len(chain.orbits[1]) * len(chain.orbits[2]), chain.field
    top, (w10, w01, d) = max(w.members), chain.generator_ranks[:3]
    if premise == "power of 2":
        classes = (_conjugacy_class(chain, x, [w10, w01, d]) for x in chain.cycle(d))
        below = [k for k in classes if max(k) < top]
        return SubgroupHandle(w.members.union(*below[:2]))
    if premise == "in G_b0":
        return SubgroupHandle(_conjugate(chain, w.members, chain.generator_ranks[3]))
    if premise == "normalized by H1":
        return SubgroupHandle(w.members - {top})
    if premise == "<t>":
        return SubgroupHandle(frozenset([chain.identity, w01]), cyclic_generator=w01)
    if premise == "w(1, 0)":
        return SubgroupHandle(frozenset({chain.identity} | _conjugacy_class(
            chain, chain.rank(make_w(f.element(2), f.zero)), [d])))
    r = next(r for r in range(n12 - 1, top, -1)
             if sum(p == x for p, x in enumerate(chain.permutation(r))) > 1)
    return SubgroupHandle(w.members | _conjugacy_class(chain, r, [w10, w01, d]))


@pytest.mark.parametrize("premise", ["power of 2", "in G_b0", "one fixed point",
                                     "normalized by H1", "<t>", "w(1, 0)"])
def test_a_w_that_breaks_a_premise_of_the_n_w_proof_fails_the_certificate(
        pair, premise, monkeypatch, capsys):
    # The proof refuses each mutant, and N(W), unproved, is taken as the
    # identity alone; no scan runs in its place.  The table pins which
    # premises each mutant breaks: whether its order is a power of 2,
    # whether its largest rank lies below N1 N2 and fixes one point, and
    # whether w(1, 0), w(0, 1) and d(lam) each conjugate it into itself.
    # "<t>" passes every other check of the certificate.  ``verify`` on a
    # mutant fails its partition and N(W) index checks and exits 4.
    chain = pair.table
    w, n12 = _w_mutant(chain, premise), len(chain.orbits[1]) * len(chain.orbits[2])
    top = max(w.members)
    fixed = sum(p == x for p, x in enumerate(chain.permutation(top)))
    normalized = tuple(_conjugate(chain, w.members, g) == w.members
                       for g in chain.generator_ranks[:3])
    assert (w.order, top < n12, fixed == 1, normalized) == {
        "power of 2": (192, True, True, (True, True, True)),
        "in G_b0": (64, False, True, (False, False, True)),
        "one fixed point": (128, True, False, (True, True, True)),
        "normalized by H1": (63, True, True, (False, True, False)),
        "<t>": (2, True, True, (True, True, False)),
        "w(1, 0)": (8, True, True, (False, True, True))}[premise]
    assert _normalizer_of_w(chain, w) is None
    scans = _count_scans(monkeypatch)
    report = verify_partition(chain, w)
    assert len(scans) == 3
    assert report.normalizers["w"].members == {chain.identity}
    assert (report.multiply_covered, report.missing, report.census) == (None, None, None)
    assert not report.passed
    monkeypatch.setattr(szq.oracle, "unitriangular", lambda c: w)
    rc = main(["verify", "--q", "8", "--modulus", hex(chain.field.modulus), "--output", "json",
               "--no-timestamp"])
    checks = {c["name"]: c["passed"] for c in json.loads(capsys.readouterr().out)["checks"]}
    assert rc == 4
    assert not checks["partition"] and not checks["normalizer_w_index"]


def test_a_member_that_moves_the_fixed_point_fails_the_certificate(pair):
    # W with its largest rank swapped for tau, an involution whose one fixed
    # point is not <e1> = b0, W's: tau is now the largest rank, the member
    # whose fixed point the proof takes, and the members of W move that
    # point.  The proof refuses it, and the certificate fails.
    chain = pair.table
    w = unitriangular(chain)
    tau = chain.generator_ranks[3]
    fixed = [p for p, image in enumerate(chain.permutation(tau)) if p == image]
    assert len(fixed) == 1 and fixed[0] != chain.base[0]
    swapped = SubgroupHandle(w.members - {max(w.members)} | {tau})
    assert max(swapped.members) == tau
    assert _normalizer_of_w(chain, swapped) is None
    assert not verify_partition(chain, swapped).passed


@pytest.mark.parametrize("level, change", [(1, -1), (2, 1)])
def test_a_chain_without_the_orbit_premises_fails_the_certificate(pair, level, change):
    # A copied chain whose orbits[1] is one point short (N1 = N0 - 2: not
    # 2-transitive) or whose orbits[2] is one point long (N2 = 8, even):
    # the fixed-point proof of N(W) and of W's TI refuses W on it.
    chain = copy(pair.table)
    w = unitriangular(chain)
    orbit = chain.orbits[level]
    chain.orbits = list(chain.orbits)
    chain.orbits[level] = orbit[:-1] if change < 0 else [*orbit, orbit[0]]
    n0, n1, n2 = map(len, chain.orbits)
    assert (n0 - n1, n2 % 2) == ((2, 1) if level == 1 else (1, 0))
    assert _normalizer_of_w(pair.table, w) is not None
    assert _normalizer_of_w(chain, w) is None


def test_verify_without_the_certificate_reports_the_power_pass(pair, monkeypatch, capsys):
    # The failed certificate leaves verify the power pass's census, which
    # still matches the closed forms, and the partition check fails: exit 4.
    _shorten_n_u1(pair, monkeypatch)
    modulus = hex(pair.table.field.modulus)
    rc = main(["verify", "--q", "8", "--modulus", modulus, "--output", "json",
               "--no-timestamp"])
    data = json.loads(capsys.readouterr().out)
    assert rc == 4
    checks = {c["name"]: c["passed"] for c in data["checks"]}
    assert not checks["partition"] and checks["census_matches_closed_form"]
    assert data["census"] == OrderStats(
        counts={o: pair.census.count(o) for o in set(pair.census)}, total=29120).to_json_dict()


def test_the_partition_census_is_the_power_pass(pair):
    # Read off the partition of a fresh chain from the orders of the four
    # classes' members: the counts of a fresh chain's power pass, with no
    # order byte allocated.
    chain = StabilizerChain(pair.params, pair.table.field)
    census = verify_partition(chain).census
    assert census == OrderStats(counts={o: pair.fresh.count(o) for o in set(pair.fresh)},
                                total=29120)
    assert chain._orders is None


@settings(max_examples=30, deadline=None)
@given(r=st.integers(0, 29119))
def test_order_walks_one_cycle_and_keeps_nothing(pair_0xb, pair_0xd, r):
    # On a fresh chain the order of r is one more than the count of the
    # nontrivial powers its ``cycle`` walks, and no order byte is allocated;
    # order bytes set wrong by hand are not read.
    for pair in (pair_0xb, pair_0xd):
        chain = StabilizerChain(pair.params, pair.table.field)
        assert chain.order(r) == len(chain.cycle(r)) + 1 == pair.fresh[r]
        assert chain._orders is None
        chain._orders = bytearray([255]) * chain.size
        assert chain.order(r) == pair.fresh[r]


def test_a_cyclic_class_of_order_4_is_not_ti(sz8):
    # N(<x^2>) = C(x^2) has order 64, N(<x>) only 16: two conjugates of
    # <x> share x^2.
    chain = sz8.table
    h = find_cyclic_subgroup(chain, 4)
    square = chain.mul(h.cyclic_generator, h.cyclic_generator)
    assert centralizer(chain, square).order == 64
    assert normalizer(chain, h).order == 16
    assert not _is_ti(chain, h, normalizer(chain, h))
    for k in (13, 7, 5):
        h = find_cyclic_subgroup(chain, k)
        assert _is_ti(chain, h, normalizer(chain, h))


@settings(max_examples=30, deadline=None)
@given(before=st.lists(st.integers(0, 29119), max_size=8), partition=st.booleans(),
       found=st.lists(st.sampled_from([13, 7, 5, 4, 2, 1]), max_size=3),
       after=st.lists(st.integers(0, 29119), max_size=8))
def test_walks_before_the_census_leave_it_unchanged(pair_0xb, pair_0xd, before, partition,
                                                     found, after):
    # No walk before the census keeps an order byte, and the census fills
    # them all: whatever ran first, the bytes are those of the reference
    # power pass and of a fresh chain's census, none left at 0.
    for pair in (pair_0xb, pair_0xd):
        chain = StabilizerChain(pair.params, pair.table.field)
        for r in before:
            chain.cycle(r)
        if partition:
            assert verify_partition(chain).passed
        for k in found:
            assert find_cyclic_subgroup(chain, k).cyclic_generator == pair.fresh.index(k)
        for r in after:
            chain.cycle(r)
        orders = chain.orders()
        assert orders == pair.fresh == pair.census
        assert 0 not in orders


class _CountingBytes(bytearray):
    """Order bytes that log the census: ``finds`` holds (args, result) for
    each search, ``writes`` counts the bytes set."""

    def __init__(self, size):
        super().__init__(size)
        self.finds, self.writes = [], 0

    def find(self, *args):
        found = super().find(*args)
        self.finds.append((args, found))
        return found

    def __setitem__(self, i, value):
        self.writes += 1
        super().__setitem__(i, value)


def _count_walker_calls(monkeypatch):
    """The calls, (r, orders), of every power walker made from now on."""
    calls, power_walker = [], StabilizerChain._power_walker

    def counted(chain):
        walk = power_walker(chain)
        return lambda r, orders=None: calls.append((r, orders)) or walk(r, orders)

    monkeypatch.setattr(StabilizerChain, "_power_walker", counted)
    return calls


def _count_walks(chain, monkeypatch):
    """Order bytes that log the census for a fresh chain, and the calls of
    every power walker made from now on (``_count_walker_calls``)."""
    orders = chain._orders = _CountingBytes(chain.size)
    bytearray.__setitem__(orders, chain.identity, 1)
    return orders, _count_walker_calls(monkeypatch)


def test_power_fixups_turn_k_into_the_orders_of_the_powers():
    # A walk writes k into the bytes of x, ..., x^(k-1) and then applies
    # the fix-ups: that must give ord(x^i) = k / gcd(i, k) for every i.
    for k in range(1, 256):
        orders = [k] * (k - 1)
        for i, o in _power_fixups(k):
            orders[i] = o
        assert orders == [k // gcd(i, k) for i in range(1, k)]
    assert _power_fixups(13) == [] and _power_fixups(4) == [(1, 2)]


def test_a_full_census_makes_one_find_per_hole(pair, monkeypatch):
    # The whole census is one walker call from the first hole.  Inside it
    # the search for the next hole is the only one.  Each hole a search
    # finds is walked once and nothing else is: a walk of a rank of order k
    # writes k into its k - 1 powers' bytes and rewrites the bytes of the
    # x^i with gcd(i, k) > 1, so the bytes set are those of one walk per
    # hole.
    chain = StabilizerChain(pair.params, pair.table.field)
    orders, calls = _count_walks(chain, monkeypatch)
    assert chain.orders() == pair.census
    holes = [found for args, found in orders.finds if found >= 0]
    assert holes and calls == [(holes[0], orders)]
    assert holes == sorted(set(holes))
    assert all(args[0] == 0 for args, _ in orders.finds)
    writes = {k: k - 1 + sum(gcd(i, k) > 1 for i in range(1, k)) for k in set(pair.census)}
    assert orders.writes == sum(writes[pair.census[h]] for h in holes)
    assert len(orders.finds) <= len(holes) + 1


def _distinct_order_stats(orders, hints):
    """The census that scans every byte for the distinct orders and refuses
    those dividing no hint: the counts, or the refusal's message."""
    counts = {o: orders.count(o) for o in set(orders)}
    outside = [o for o in counts if hints and all(h % o for h in hints)]
    if outside:
        return f"element orders {sorted(outside)} lie outside the hints {sorted(hints)}"
    return counts


def _hinted_order_stats(orders, hints):
    """``empirical_order_stats`` on these order bytes: the counts, or the
    refusal's message."""
    chain = SimpleNamespace(orders=lambda: orders, size=len(orders))
    try:
        return empirical_order_stats(chain, Spectrum(frozenset(hints))).counts
    except OrderNotFoundError as e:
        return str(e)


def test_the_hinted_count_is_the_census(pair):
    # The counts of the orders that divide a hint are every byte's count;
    # a hint of 13 alone, not divisor-closed, refuses orders 2, 4, 5 and 7
    # and names them as the scan of every byte does.
    chain = StabilizerChain(pair.params, pair.table.field)
    stats = empirical_order_stats(chain, spectrum_closed_form(pair.params))
    assert stats.counts == Counter(chain.orders())
    assert stats.total == chain.size
    with pytest.raises(OrderNotFoundError) as refused:
        empirical_order_stats(chain, Spectrum(frozenset({13})))
    assert str(refused.value) == _distinct_order_stats(chain.orders(), [13])
    assert "[2, 4, 5, 7]" in str(refused.value)


@settings(max_examples=200, deadline=None)
@given(orders=st.lists(st.sampled_from([1, 2, 4, 5, 7, 13, 26, 255]), min_size=1, max_size=40),
       hints=st.sampled_from([{13}, {13, 4}, {26}, {2, 255}, {0}, {1}, {520}]))
def test_the_hinted_count_accepts_and_refuses_as_the_distinct_scan(orders, hints):
    orders = bytearray(orders)
    assert _hinted_order_stats(orders, hints) == _distinct_order_stats(orders, hints)


def test_find_cyclic_subgroup_walks_from_its_lagrange_start(sz8, monkeypatch):
    # On a fresh chain the first element of order k is the one a full census
    # gives, found by one walk per rank from the start on, with no order
    # byte allocated.  The ranks below N1 N2 = 448 are G_{b0}, whose orders
    # divide 448, so for k = 13 and 5 no walk starts below 448.  An order
    # that does not divide |G| (or that no byte can hold) is refused before
    # any walk, and one that divides |G| but is no element's order (8) after
    # the last rank.  The last walk of a find is the ``cycle`` of the
    # element it found, by ``cyclic_subgroup``.
    chain, full = StabilizerChain(sz8.params, sz8.field), sz8.table.orders()
    n12 = len(chain.orbits[1]) * len(chain.orbits[2])
    assert n12 == 448
    calls = _count_walker_calls(monkeypatch)
    for k in (0, 3, 256):
        with pytest.raises(SubgroupNotFoundError):
            find_cyclic_subgroup(chain, k)
    assert calls == []
    for k in (13, 5, 7, 4, 2, 1):
        first, start = full.index(k), n12 if n12 % k else 0
        assert find_cyclic_subgroup(chain, k).cyclic_generator == first
        assert [r for r, _ in calls] == [*range(start, first + 1), first]
        calls.clear()
    with pytest.raises(SubgroupNotFoundError):
        find_cyclic_subgroup(chain, 8)
    assert [r for r, _ in calls] == list(range(chain.size))
    assert chain._orders is None


@settings(max_examples=200, deadline=None)
@given(r=st.integers(0, 29119), s=st.integers(0, 29119))
def test_rank_products_agree_with_byte_key_products(pair_0xb, pair_0xd, r, s):
    for pair in (pair_0xb, pair_0xd):
        keys = pair.keys
        assert keys[pair.table.mul(r, s)] == pair.reference.mul(keys[r], keys[s])


def _reference_point_image(field, point, mat):
    """``_point_image`` as it was before its lookups: the lead's inverse by
    square-and-multiply (``field._inv``) and the scaling by ``field._mul``."""
    t, e = field._mul_table, mat.entries
    r0, r1, r2, r3 = [t[x] for x in point]
    image = (r0[e[0]] ^ r1[e[4]] ^ r2[e[8]] ^ r3[e[12]],
             r0[e[1]] ^ r1[e[5]] ^ r2[e[9]] ^ r3[e[13]],
             r0[e[2]] ^ r1[e[6]] ^ r2[e[10]] ^ r3[e[14]],
             r0[e[3]] ^ r1[e[7]] ^ r2[e[11]] ^ r3[e[15]])
    lead = next((c for c in image if c), 1)
    if lead == 1:
        return image
    scale = field._inv(lead)
    return tuple(field._mul(scale, c) for c in image)


@pytest.mark.parametrize("q", ["8-0xb", "8-0xd", "32"])
def test_point_images_agree_with_field_arithmetic(pair_0xb, pair_0xd, sz32, q):
    # Every ovoid point and the zero vector under each candidate generator;
    # at q = 8 also every other vector, whose images need scaling by any lead.
    chain = {"8-0xb": pair_0xb.table, "8-0xd": pair_0xd.table, "32": sz32}[q]
    f = chain.field
    points = list(chain.points) + [(0, 0, 0, 0)]
    if f.q == 8:
        points = [(a, b, c, d) for a in range(8) for b in range(8)
                  for c in range(8) for d in range(8)]
    for g in chain.generators:
        for p in points:
            assert _point_image(f, p, g) == _reference_point_image(f, p, g)


@settings(max_examples=200, deadline=None)
@given(r=st.integers(0, 29119), s=st.integers(0, 29119))
def test_rank_products_agree_with_composed_permutations(pair_0xb, pair_0xd, r, s):
    # "First r, then s" maps point p to s(r(p)); the chain confirms that
    # permutation on every point.
    for chain in (pair_0xb.table, pair_0xd.table):
        u, v = chain.permutation(r), chain.permutation(s)
        assert chain.mul(r, s) == chain._rank_of_images([v[p] for p in u])


@settings(max_examples=100, deadline=None)
@given(r=st.integers(0, 29119))
def test_a_power_walker_steps_the_cyclic_subgroup(pair_0xb, pair_0xd, r):
    # The walk lists x, x^2, ... in order, the members of <x> but the
    # identity (none for the identity), one fewer than the order of x in the
    # reference census, and keeps no order byte.  (A non-rank is refused
    # with the other rank takers, in ``test_a_non_rank_is_refused_not_wrapped``.)
    for pair in (pair_0xb, pair_0xd):
        chain = StabilizerChain(pair.params, pair.table.field)
        walk = chain._power_walker()
        assert walk(chain.identity) == []
        powers = walk(r)
        k = len(powers) + 1
        members = cyclic_subgroup(chain, r, k).members
        assert set(powers) == members - {chain.identity}
        assert len(powers) == len(set(powers))
        assert powers[1:] == [chain.mul(x, r) for x in powers[:-1]]
        assert k == pair.census[r]
        assert chain.cycle(r) == powers
        assert chain._orders is None


@settings(max_examples=30, deadline=None)
@given(r=st.integers(0, 29119))
def test_cyclic_subgroup_keeps_no_order_byte(pair_0xb, pair_0xd, r):
    # On a fresh chain <x> comes from the power walk of x, whose members
    # have the orders k / gcd(i, k) of the powers x^i in the census, and no
    # order byte is allocated.  (Its refusals: a wrong order in
    # ``test_cyclic_subgroup_refuses_a_wrong_order``, an order that is no
    # int in ``test_a_subgroup_order_that_is_no_int_is_refused``, a non-rank
    # in ``test_a_non_rank_is_refused_not_wrapped``.)
    for pair in (pair_0xb, pair_0xd):
        chain = StabilizerChain(pair.params, pair.table.field)
        k = pair.fresh[r]
        h = cyclic_subgroup(chain, r, k)
        assert h.order == k and h.cyclic_generator == r
        assert sorted(pair.fresh[x] for x in h.members) == sorted(k // gcd(i, k)
                                                                  for i in range(k))
        assert chain._orders is None


def test_matrix_ranks_agree_with_their_byte_keys(pair_0xb, sz8_matrices):
    table, keys, ref = pair_0xb.table, pair_0xb.keys, pair_0xb.reference
    for entries in sorted(sz8_matrices.keys)[::97]:
        mat = Mat4(sz8_matrices.field, entries)
        assert keys[table.rank(mat)] == ref.key(mat)
    f = table.field
    off_ovoid = Mat4(f, (1, 1, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1))
    with pytest.raises(ValueError):
        table.rank(off_ovoid)


def test_the_chain_s_levels_at_q8(sz8):
    chain = sz8.table
    assert [len(orbit) for orbit in chain.orbits] == [65, 64, 7]
    points = sz8.table.points
    assert [points[b] for b in chain.base[:2]] == [(1, 0, 0, 0), (0, 0, 0, 1)]
    assert chain.base[2] == min(set(range(65)) - set(chain.base[:2]))


@settings(max_examples=200, deadline=None)
@given(r=st.integers(0, 29119))
def test_rank_key_sift_rank_round_trips(pair_0xb, r):
    table, key = pair_0xb.table, pair_0xb.keys[r]
    u0, u1, u2 = table.element(r)
    assert key == bytes(u0[u1[u2[k]]] for k in range(65))
    assert key in pair_0xb.reference.keys
    assert table.sift(*(key[b] for b in table.base)) == r
    assert table._rank_of_images(key) == r


@settings(max_examples=200, deadline=None)
@given(perm=st.permutations(range(65)))
def test_a_key_outside_the_table_raises(pair_0xb, perm):
    # Almost every permutation of the 65 points lies outside Sz(8); the
    # closure decides which.  Its base images may still sift to a rank, so
    # the rank is confirmed on every point.
    key, table = bytes(perm), pair_0xb.table
    if key in pair_0xb.reference.keys:
        assert pair_0xb.keys[table._rank_of_images(key)] == key
    else:
        with pytest.raises(ValueError):
            table._rank_of_images(key)


@pytest.mark.parametrize("key", [bytes([200] * 65), bytes(64), (1, 2, 3), "x" * 65],
                         ids=["points-past-65", "short", "tuple", "str"])
def test_a_key_that_is_no_permutation_of_the_points_raises(sz8, key):
    # The scans take ranks, and a key is none; as point images, the byte
    # strings and the tuple are those of no element.
    chain = sz8.table
    with pytest.raises(ValueError):
        centralizer(chain, key)
    with pytest.raises(ValueError):
        normalizer(chain, SubgroupHandle(frozenset([chain.identity, key])))
    if not isinstance(key, str):
        with pytest.raises(ValueError):
            sz8.table._rank_of_images(key)


@pytest.fixture(scope="module")
def sz32():
    return StabilizerChain(make_params(2), Field(2))


def test_the_sz32_chain_is_certified_without_keys(sz32):
    assert [len(orbit) for orbit in sz32.orbits] == [1025, 1024, 31]
    assert sz32.size == 32537600
    assert sz32.rank(Mat4.identity(sz32.field)) == sz32.identity


def test_the_sz32_torus_is_its_own_centralizer(sz32):
    # T = <d(lam)> of order q - 1 = 31 fixes b0 and b1; C(d) = T and
    # |N(T)| = 2 |T|, with no census.
    d = sz32.rank(sz32.generators[2])
    torus = cyclic_subgroup(sz32, d, 31)
    assert centralizer(sz32, d).members == torus.members
    assert normalizer(sz32, torus).order == 62


def test_sz32_centralizers_of_2_elements(sz32):
    # w(1, 0) has order 4 and its square is an involution t: |C(t)| = q^2
    # and |C(w(1, 0))| = 2q, with the powers stepped by ``cycle``, no census.
    x = sz32.rank(sz32.generators[0])
    powers = sz32.cycle(x)
    assert len(powers) + 1 == 4
    t = powers[1]
    assert sz32.cycle(t) == [t]
    c_t, c_x = centralizer(sz32, t), centralizer(sz32, x)
    assert (c_t.order, c_x.order) == (1024, 64)
    assert {sz32.identity, *powers} <= c_x.members <= c_t.members


def test_a_class_short_of_its_elements_leaves_them_missing(sz32, monkeypatch):
    # The class of order 25 replaced by its subgroup P of order 5: P is
    # prime, so TI, and coprime to the other classes, so the certificate
    # holds, but each conjugate of P covers 4 of the 24 nontrivial elements
    # of its conjugate of U2.  The rest are missing, and no census is read
    # off the partition.
    find = szq.oracle.find_cyclic_subgroup
    monkeypatch.setattr(szq.oracle, "find_cyclic_subgroup",
                        lambda t, k: find(t, 5 if k == 25 else k))
    report = verify_partition(sz32)
    assert report.classes["u2"].order == 5
    assert report.measured.n_u2 == 325376
    assert report.multiply_covered == 0
    assert report.missing == 325376 * 20 == sz32.size - 1 - report.coverage
    assert report.census is None
    assert not report.passed


@settings(max_examples=200, deadline=None)
@given(r=st.integers(0, 32537599))
def test_sz32_ranks_round_trip_through_their_base_images(sz32, r):
    u0, u1, u2 = sz32.element(r)
    assert sz32.sift(*(u0[u1[u2[b]]] for b in sz32.base)) == r


def test_sz32_generator_ranks_match_their_point_action(sz32):
    # The generators' own permutations, as the field computes them, sift to
    # ranks whose chain elements act the same on every point.
    for g in sz32.generators:
        perm = [sz32._number[_point_image(sz32.field, p, g)] for p in sz32.points]
        u0, u1, u2 = sz32.element(sz32.sift(*(perm[b] for b in sz32.base)))
        assert [u0[u1[u2[k]]] for k in range(1025)] == perm


@pytest.mark.parametrize("q", [8, 32])
def test_unitriangular_ranks_only_the_generators_the_chain_lacks(pair_0xb, sz32, q,
                                                                  monkeypatch):
    # w(1, 0) and w(0, 1) come with the chain's generator ranks; the other
    # 2m of the 2m + 2 ``w_generators`` are ranked from their matrices.
    chain = pair_0xb.table if q == 8 else sz32
    ranked, rank = [], StabilizerChain.rank
    monkeypatch.setattr(StabilizerChain, "rank", lambda c, mat: ranked.append(mat) or rank(c, mat))
    assert unitriangular(chain).order == q * q
    assert len(ranked) <= 2 * chain.params.m


@pytest.mark.parametrize("world", ["pair_0xb", "pair_0xd", "sz32"])
def test_the_proved_normalizer_of_w_is_the_scanned_one(request, world):
    # N(W) = G_{b0} from W's one fixed point, the rank range, is, member for
    # member, the normalizer scan of a generating set of W, at q = 8 under
    # both moduli and at q = 32 under 0x25.
    chain = request.getfixturevalue(world)
    chain = getattr(chain, "table", chain)
    assert chain.field.modulus in (0xb, 0xd, 0x25)
    w, n12 = unitriangular(chain), len(chain.orbits[1]) * len(chain.orbits[2])
    proved = _normalizer_of_w(chain, w)
    assert proved.members == range(n12)
    assert normalizer(chain, w).members == frozenset(proved.members)


@pytest.mark.parametrize("world", ["pair_0xb", "pair_0xd", "sz32"])
def test_the_certificate_keeps_n_w_as_its_rank_range(request, world):
    # The certificate reports N(W) as range(N1 N2), no set of its ranks.
    chain = request.getfixturevalue(world)
    chain = getattr(chain, "table", chain)
    assert chain.field.modulus in (0xb, 0xd, 0x25)
    n12 = len(chain.orbits[1]) * len(chain.orbits[2])
    assert verify_partition(chain).normalizers["w"].members == range(n12)


def test_one_certificate_permutes_w_s_largest_rank_once(pair, monkeypatch):
    # W's one fixed point is derived once, by the proof of N(W) and of W's
    # TI: the certificate permutes W's largest rank once.
    chain = pair.table
    w = unitriangular(chain)
    top, calls, permutation = max(w.members), [], StabilizerChain.permutation
    monkeypatch.setattr(StabilizerChain, "permutation",
                        lambda c, r: calls.append(r) or permutation(c, r))
    assert verify_partition(chain, w).passed
    assert calls.count(top) == 1


@pytest.mark.parametrize("modulus", [0x25, 0x29, 0x2f], ids=hex)
def test_the_sz32_partition_is_certified(modulus, monkeypatch):
    # One scan each for N(U1), N(U2), N(V) and N(P), P the subgroup of
    # order 5 of the class of order 25: 4 scans, none for N(W), which is
    # proved from W's one fixed point, and no census.
    chain = StabilizerChain(make_params(2), Field(2, modulus=modulus))
    scans = _count_scans(monkeypatch)
    report = verify_partition(chain)
    assert len(scans) == 4
    m = report.measured
    assert (m.n_w, m.n_u1, m.n_u2, m.n_v) == (1025, 198400, 325376, 524800)
    assert report.coverage == 32537599
    assert (report.multiply_covered, report.missing) == (0, 0)
    assert report.passed
    assert report.census == nse_closed_form(make_params(2))
    assert chain._orders is None
