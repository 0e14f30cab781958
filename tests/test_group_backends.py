import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from endlab.errors import BudgetExceeded
from endlab.cayley_abels import ball_enumerate
from endlab.group_backends import FiniteGroup, RewritingGroup


def make_z():
    return RewritingGroup(["a"], {"a": "A"}, name="Z")


def make_z2():
    return RewritingGroup(
        ["a", "b"],
        {"a": "A", "b": "B"},
        [("ba", "ab"), ("bA", "Ab"), ("Ba", "aB"), ("BA", "AB")],
        name="Z2",
    )


def make_f2():
    return RewritingGroup(["a", "b"], {"a": "A", "b": "B"}, name="F2")


def make_dinf():
    return RewritingGroup(["x", "y"], {"x": "x", "y": "y"}, name="Dinf")


# -- independent oracles ------------------------------------------------------

def z_count(word):
    return word.count("a") - word.count("A")


def z2_count(word):
    return (word.count("a") - word.count("A"), word.count("b") - word.count("B"))


def affine_of(word):
    """x acts on the integers by n -> -n, y by n -> 1 - n."""
    maps = {"x": (-1, 0), "y": (-1, 1)}
    p, q = 1, 0
    for c in word:
        a, b = maps[c]
        p, q = p * a, p * b + q
    return p, q


def free_reduce(word):
    inv = {"a": "A", "A": "a", "b": "B", "B": "b"}
    out = []
    for c in word:
        if out and out[-1] == inv[c]:
            out.pop()
        else:
            out.append(c)
    return "".join(out)


# -- finite groups --------------------------------------------------------------

def test_cyclic_group_is_verified():
    g = FiniteGroup.cyclic(6)
    assert len(g) == 6
    assert g.identity == 0
    assert g.mul(4, 5) == 3
    assert g.inv(2) == 4


def test_non_latin_table_rejected():
    with pytest.raises(ValueError):
        FiniteGroup([0, 1], [[0, 1], [1, 1]])


def test_nonassociative_loop_rejected():
    # order-5 Latin square with identity and inverses, but (1.1).2 != 1.(1.2)
    table = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 4, 0, 1, 3],
        [3, 2, 4, 0, 1],
        [4, 3, 1, 2, 0],
    ]
    with pytest.raises(ValueError, match="associative"):
        FiniteGroup(list(range(5)), table)


# -- normal forms -----------------------------------------------------------------

def test_free_reduction_in_z():
    assert make_z().normal_form("aAa") == "a"


def test_single_commutation_in_z2():
    assert make_z2().normal_form("ba") == "ab"


def test_dinf_against_affine_oracle():
    d = make_dinf()
    assert d.normal_form("xyyxx") == "x"
    assert affine_of(d.normal_form("xyyxx")) == affine_of("xyyxx")


def test_dinf_normal_forms_faithful_on_ball4():
    d = make_dinf()
    ball = ball_enumerate(d, ["x", "y"], 4)
    for u, v in itertools.product(ball, repeat=2):
        same_nf = d.multiply(u, v) == d.multiply(u, v)
        assert same_nf
        assert (d.normal_form(u) == d.normal_form(v)) == (affine_of(u) == affine_of(v))


def test_z2_normal_forms_match_counts_on_ball4():
    z2 = make_z2()
    ball = ball_enumerate(z2, ["a", "A", "b", "B"], 4)
    for u, v in itertools.product(ball, repeat=2):
        assert (u == v) == (z2_count(u) == z2_count(v))


def test_f2_normal_forms_match_free_reduction_on_ball4():
    f2 = make_f2()
    ball = ball_enumerate(f2, ["a", "A", "b", "B"], 4)
    for u in ball:
        assert u == free_reduce(u)
    rng = random.Random(5)
    letters = "aAbB"
    for _ in range(300):
        w = "".join(rng.choice(letters) for _ in range(rng.randint(0, 10)))
        assert f2.normal_form(w) == free_reduce(w)


def test_unknown_letter_rejected():
    with pytest.raises(ValueError, match="unknown letter"):
        make_z().normal_form("ac")


@settings(max_examples=120, deadline=None)
@given(st.text(alphabet="aA", max_size=14))
def test_normal_form_idempotent_z(word):
    z = make_z()
    nf = z.normal_form(word)
    assert z.normal_form(nf) == nf
    assert z_count(nf) == z_count(word)


@settings(max_examples=120, deadline=None)
@given(st.text(alphabet="aAbB", max_size=12))
def test_normal_form_constant_on_rewrites_z2(word):
    z2 = make_z2()
    nf = z2.normal_form(word)
    # apply a random single rewriting step by hand, then normalize again
    rng = random.Random(len(word))
    for lhs, rhs in z2.rules:
        at = word.find(lhs)
        if at >= 0 and rng.random() < 0.7:
            stepped = word[:at] + rhs + word[at + len(lhs):]
            assert z2.normal_form(stepped) == nf
    assert z2_count(nf) == z2_count(word)


# -- confluence --------------------------------------------------------------------

def test_free_group_rules_confluent():
    ok, pair = make_f2().verify_confluence()
    assert ok and pair is None


def test_named_inverse_letter_is_confluent():
    # the system {ab -> 1, ba -> 1} is the free reduction for inverse pair (a, b)
    g = RewritingGroup(["a"], {"a": "b"})
    ok, _ = g.verify_confluence()
    assert ok


def test_non_confluent_system_reports_overlap():
    g = RewritingGroup(
        ["a", "b"], {"a": "A", "b": "B"}, [("ab", "a"), ("ba", "b")], check=False
    )
    ok, pair = g.verify_confluence()
    assert not ok
    word, one, two = pair
    assert one != two
    assert g.normal_form(word) in (one, two)


def test_aa_to_a_system_rejected():
    with pytest.raises(ValueError, match="confluent"):
        RewritingGroup(["a"], {"a": "A"}, [("aa", "a")])


def test_non_reducing_rule_rejected():
    with pytest.raises(ValueError, match="reduce"):
        RewritingGroup(["a"], {"a": "A"}, [("a", "aa")], check=False)


# -- ball enumeration ----------------------------------------------------------------

def test_ball_sizes_z():
    z = make_z()
    assert len(ball_enumerate(z, ["a", "A"], 2)) == 5


def test_ball_sizes_z2_against_taxicab_oracle():
    z2 = make_z2()
    ball = ball_enumerate(z2, ["a", "A", "b", "B"], 2)
    want = {(m, n) for m in range(-2, 3) for n in range(-2, 3) if abs(m) + abs(n) <= 2}
    assert len(ball) == 13 == len(want)
    assert {z2_count(w) for w in ball} == want


def test_ball_sizes_f2_against_reduced_word_oracle():
    f2 = make_f2()
    ball = ball_enumerate(f2, ["a", "A", "b", "B"], 2)
    # brute force: all words of length <= 2, freely reduced, deduplicated
    inv = {"a": "A", "A": "a", "b": "B", "B": "b"}
    words = {""}
    for n in (1, 2):
        for w in itertools.product("aAbB", repeat=n):
            words.add(free_reduce("".join(w)))
    assert len(ball) == 17 == len(words)


def test_balls_are_nested_and_monotone():
    z2 = make_z2()
    gens = ["a", "A", "b", "B"]
    sizes = []
    previous = set()
    for r in range(1, 5):
        ball = set(ball_enumerate(z2, gens, r))
        assert previous <= ball
        sizes.append(len(ball))
        previous = ball
    assert sizes == sorted(sizes)


def test_ball_respects_cap():
    with pytest.raises(BudgetExceeded):
        ball_enumerate(make_f2(), ["a", "A", "b", "B"], 8, cap=50)


def test_ball_closes_generators_under_inverses():
    z = make_z()
    assert ball_enumerate(z, ["a"], 2) == ball_enumerate(z, ["a", "A"], 2)


def test_missing_free_reduction_impossible():
    # the constructor always installs the free reduction rules
    z = make_z()
    assert ("aA", "") in z.rules and ("Aa", "") in z.rules


def test_rewriting_json_round_trip():
    z2 = make_z2()
    data = z2.to_json()
    back = RewritingGroup.from_json(data)
    assert back.to_json() == data
    for w in ("ba", "bA", "aAbB", "BBaa"):
        assert back.normal_form(w) == z2.normal_form(w)


def test_ball_accepts_unnormalized_generators():
    z = make_z()
    ball = ball_enumerate(z, ["aAa", "A"], 2)
    assert len(ball) == 5


# -- ball enumeration against the stand-alone BFS it replaced --------------------------

def reference_ball_enumerate(backend, gens, radius):
    """The original stand-alone ball BFS, kept as the reference.

    gens must be symmetric; each BFS layer is emitted in sort_key order.
    """
    e = backend.identity()
    gens = [backend.multiply(e, g) for g in gens]
    have = set(gens)
    assert all(backend.inverse(g) in have for g in gens)
    elements = [e]
    seen = {e}
    frontier = [e]
    for _ in range(radius):
        found = {}
        for x in frontier:
            for s in gens:
                y = backend.multiply(x, s)
                if y not in seen:
                    found[y] = None
        frontier = sorted(found, key=backend.sort_key)
        seen.update(frontier)
        elements.extend(frontier)
        if not frontier:
            break
    return elements


def ball_cases():
    from endlab.theorem_lab import default_catalog

    cases = [
        (entry.backend(), list(pair.S), pair.name)
        for entry in default_catalog()
        for pair in entry.pairs()
    ]
    cases.append((make_f2(), ["a", "A", "b", "B"], "F2"))
    cases.append((make_z2(), ["a", "A", "b", "B"], "Z2"))
    cases.append((make_dinf(), ["x", "y"], "Dinf"))
    return cases


@pytest.mark.parametrize("radius", [1, 2, 3, 4])
def test_ball_matches_reference_bfs(radius):
    for backend, gens, name in ball_cases():
        got = list(ball_enumerate(backend, gens, radius))
        assert got == reference_ball_enumerate(backend, gens, radius), name


# -- indexed reducer against the rule-scanning reference ------------------------------

def reference_normal_form(group, word):
    """The original reducer, kept as the reference.

    At each position it tries every rule in order with startswith; after a
    rewrite it backs up by the longest left-hand side.
    """
    max_lhs = max(len(lhs) for lhs, _ in group.rules)
    w = word
    pos = 0
    while pos < len(w):
        for lhs, rhs in group.rules:
            if w.startswith(lhs, pos):
                break
        else:
            pos += 1
            continue
        w = w[:pos] + rhs + w[pos + len(lhs):]
        pos = max(0, pos - max_lhs + 1)
    return w


def reference_sort_key(group, word):
    """The original tuple-per-call shortlex key."""
    return (len(word), tuple(group.letter_order[c] for c in word))


README_Z2_SPEC = {
    "type": "rewriting_group",
    "name": "Z2",
    "generators": ["a", "b"],
    "inverses": {"a": "A", "b": "B"},
    "rules": [["ba", "ab"], ["bA", "Ab"], ["Ba", "aB"], ["BA", "AB"]],
}


def rewriting_systems():
    from endlab.theorem_lab import default_catalog

    groups = [
        RewritingGroup.from_json(e.spec["backend"])
        for e in default_catalog()
        if e.spec["backend"]["type"] == "rewriting_group"
    ]
    groups.append(RewritingGroup.from_json(README_Z2_SPEC))
    # not confluent, so the result depends on which rewrite fires first
    groups.append(RewritingGroup(
        ["a", "b"], {"a": "A", "b": "B"}, [("ab", "a"), ("ba", "b")], check=False
    ))
    return groups


REWRITING_SYSTEMS = rewriting_systems()


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_indexed_reducer_matches_reference(data):
    group = data.draw(st.sampled_from(REWRITING_SYSTEMS))
    letters = st.sampled_from(group.alphabet)
    word = "".join(data.draw(st.lists(letters, max_size=40)))
    assert group.normal_form(word) == reference_normal_form(group, word)
    u = "".join(data.draw(st.lists(letters, max_size=8)))
    v = "".join(data.draw(st.lists(letters, max_size=8)))
    new = group.sort_key(u), group.sort_key(v)
    old = reference_sort_key(group, u), reference_sort_key(group, v)
    assert (new[0] < new[1], new[0] == new[1]) == (old[0] < old[1], old[0] == old[1])
