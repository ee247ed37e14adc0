"""Data model, document formats, coverage kernels, and reductions."""

import random
from itertools import combinations

import pytest

from maxcover import (
    ApprovalElection,
    Instance,
    ParseError,
    coverage,
    coverage_inclusion_exclusion,
    document_kind,
    election_to_maxcover,
    fpt_approx,
    frequency_profile,
    pad_frequencies,
    parse_election,
    parse_graph,
    parse_instance,
    randomized_min_noncovered,
    serialize_instance,
)
from helpers import random_instance, union_coverage


# ---------------------------------------------------------------------------
# Instance parsing and serialization
# ---------------------------------------------------------------------------

def test_parse_basic_document():
    inst = parse_instance("p maxcover 3 2 1\ns 1 2\ns 2 3")
    assert inst == Instance(3, ((1, 2), (2, 3)), 1)


def test_parse_deduplicates_and_sorts_ids():
    inst = parse_instance("p maxcover 2 1 1\ns 1 1 2")
    assert inst.sets == ((1, 2),)
    assert parse_instance("p maxcover 3 1 1\ns 3 1").sets == ((1, 3),)


def test_parse_rejects_out_of_range_element():
    with pytest.raises(ParseError, match=r"element id 3 exceeds n=2 at line 2"):
        parse_instance("p maxcover 2 1 1\ns 3")
    with pytest.raises(ParseError, match=r"element id 0 must be at least 1 at line 2"):
        parse_instance("p maxcover 2 1 1\ns 0")


def test_parse_rejects_non_numeric_token():
    with pytest.raises(ParseError, match=r"non-numeric token 'two' at line 2"):
        parse_instance("p maxcover 2 1 1\ns two")
    with pytest.raises(ParseError, match=r"non-numeric token 'x' at line 1"):
        parse_instance("p maxcover x 1 1\ns 1")


def test_parse_rejects_malformed_header():
    with pytest.raises(ParseError, match="malformed header"):
        parse_instance("p setcover 2 1 1\ns 1")
    with pytest.raises(ParseError, match="malformed header"):
        parse_instance("p maxcover 2 1\ns 1")
    with pytest.raises(ParseError, match="missing 'p maxcover' header"):
        parse_instance("c nothing here\n")


def test_parse_checks_set_line_count():
    with pytest.raises(ParseError, match="expected 2 set lines, found 1"):
        parse_instance("p maxcover 2 2 1\ns 1")
    with pytest.raises(ParseError, match="unexpected content"):
        parse_instance("p maxcover 2 1 1\ns 1\ns 2")


@pytest.mark.parametrize("parse, text, message", [
    # Missing and malformed headers, in every format.
    (parse_instance, "", "missing 'p maxcover' header at line 1"),
    (parse_election, "c only a comment\n", "missing 'p approval' header at line 1"),
    (parse_graph, "\n\n", "missing 'p graph' header at line 1"),
    (parse_instance, "p approval 2 1 1\ns 1", "malformed header, expected 'p maxcover <a> <b> <k>' at line 1"),
    (parse_election, "c x\np approval 2 1\nv 1", "malformed header, expected 'p approval <a> <b> <k>' at line 2"),
    (parse_graph, "q graph 3 1 1\ne 1 2", "malformed header, expected 'p graph <a> <b> <k>' at line 1"),
    (parse_instance, "p maxcover 2 one 1\ns 1", "non-numeric token 'one' at line 1"),
    (parse_graph, "p graph 3 1 -1\ne 1 2", "header counts must be nonnegative at line 1"),
    # Wrong record tags and a graph line of the wrong arity.
    (parse_instance, "p maxcover 2 1 1\nv 1", "expected a set line starting with 's', got 'v' at line 2"),
    (parse_election, "p approval 2 1 1\ns 1", "expected a ballot line starting with 'v', got 's' at line 2"),
    (parse_graph, "p graph 3 1 1\nv 1 2", "expected an edge line 'e <u> <v>' at line 2"),
    (parse_graph, "p graph 3 1 1\ne 1 2 3", "expected an edge line 'e <u> <v>' at line 2"),
    (parse_graph, "p graph 3 1 1\ne 1", "expected an edge line 'e <u> <v>' at line 2"),
    # Non-numeric tokens and ids out of range.
    (parse_instance, "p maxcover 2 1 1\ns 1 two", "non-numeric token 'two' at line 2"),
    (parse_election, "p approval 2 1 1\nv 1 y", "non-numeric token 'y' at line 2"),
    (parse_graph, "p graph 3 1 1\ne 1 x", "non-numeric token 'x' at line 2"),
    (parse_instance, "p maxcover 2 1 1\ns 3", "element id 3 exceeds n=2 at line 2"),
    (parse_instance, "p maxcover 2 1 1\ns -1", "element id -1 must be at least 1 at line 2"),
    (parse_instance, "p maxcover 0 1 1\ns 0", "element id 0 must be at least 1 at line 2"),
    (parse_election, "p approval 2 1 1\nv 5", "candidate id 5 out of range [1, 2] at line 2"),
    (parse_election, "p approval 2 1 1\nv 0", "candidate id 0 out of range [1, 2] at line 2"),
    (parse_graph, "p graph 3 1 1\ne 1 4", "vertex id 4 out of range [1, 3] at line 2"),
    (parse_graph, "p graph 3 1 1\ne 0 4", "vertex id 0 out of range [1, 3] at line 2"),
    # The first offending token in line order is the one reported.
    (parse_instance, "p maxcover 2 1 1\ns 5 0", "element id 5 exceeds n=2 at line 2"),
    (parse_instance, "p maxcover 2 1 1\ns 0 x", "element id 0 must be at least 1 at line 2"),
    (parse_instance, "p maxcover 2 1 1\ns x 5", "non-numeric token 'x' at line 2"),
    (parse_election, "p approval 2 1 1\nv 3 x", "candidate id 3 out of range [1, 2] at line 2"),
    (parse_election, "p approval 2 1 1\nv x 3", "non-numeric token 'x' at line 2"),
    # An edge line reads both ids before it checks their range.
    (parse_graph, "p graph 3 1 1\ne 4 x", "non-numeric token 'x' at line 2"),
    # Too few records, then content after the last record.
    (parse_instance, "p maxcover 2 2 1\ns 1", "expected 2 set lines, found 1"),
    (parse_election, "p approval 2 3 1\nv 1\nc x\nv 2", "expected 3 ballot lines, found 2"),
    (parse_graph, "p graph 3 1 1", "expected 1 edge lines, found 0"),
    (parse_instance, "p maxcover 2 1 1\ns 1\ns 2", "unexpected content 's 2' at line 3"),
    (parse_election, "p approval 2 1 1\nv 1\nc x\nv 2", "unexpected content 'v 2' at line 4"),
    (parse_graph, "p graph 3 1 1\ne 1 2\n\nx", "unexpected content 'x' at line 4"),
])
def test_parse_error_messages(parse, text, message):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert str(err.value) == message


def test_parse_skips_comments_and_blank_lines():
    text = "c a comment\n\np maxcover 2 2 1\nc mid comment\ns 1\n\ns\n"
    inst = parse_instance(text)
    assert inst.sets == ((1,), ())


def test_roundtrip_identity():
    rand = random.Random(7)
    for _ in range(50):
        n = rand.randint(1, 12)
        m = rand.randint(0, 8)
        inst = random_instance(rand, n, max(m, 1), rand.randint(0, 9), p_max=max(m, 1), min_freq=0)
        if m == 0:
            inst = Instance(n, (), inst.k)
        again = parse_instance(serialize_instance(inst))
        assert again == inst


def test_instance_validation():
    with pytest.raises(ValueError, match="budget must be nonnegative"):
        Instance(2, ((1,),), -1)
    with pytest.raises(ValueError, match="universe size must be nonnegative"):
        Instance(-1, (), 0)
    with pytest.raises(ValueError, match="not strictly increasing"):
        Instance(3, ((2, 2),), 1)
    with pytest.raises(ValueError, match="exceeds n=2"):
        Instance(2, ((1, 3),), 1)
    # Budgets beyond m are legal; solvers clamp.
    inst = Instance(2, ((1,),), 9)
    assert inst.effective_budget == 1


def test_document_kind():
    assert document_kind("c x\np maxcover 1 0 0\n") == "maxcover"
    assert document_kind("p approval 1 0 0\n") == "approval"
    with pytest.raises(ParseError):
        document_kind("c only comments\n")


# ---------------------------------------------------------------------------
# Frequency profile
# ---------------------------------------------------------------------------

def test_profile_example():
    prof = frequency_profile(Instance.of(3, [[1, 2], [2, 3]], 1))
    assert prof.freq == (1, 2, 1)
    assert (prof.p_min, prof.p_max) == (1, 2)


def test_profile_empty_family():
    prof = frequency_profile(Instance(2, (), 1))
    assert prof.freq == (0, 0)
    assert (prof.p_min, prof.p_max) == (0, 0)


def test_profile_mass_conservation():
    rand = random.Random(11)
    for _ in range(30):
        inst = random_instance(rand, rand.randint(1, 10), rand.randint(1, 8),
                               1, p_max=rand.randint(1, 8) % 8 + 1, min_freq=0)
        prof = frequency_profile(inst)
        assert sum(prof.freq) == sum(len(s) for s in inst.sets)
        assert prof.p_min <= prof.p_max


# ---------------------------------------------------------------------------
# Coverage
# ---------------------------------------------------------------------------

def test_coverage_examples():
    inst = Instance.of(3, [[1, 2], [2, 3]], 2)
    assert coverage(inst, [0, 1]) == 3
    assert coverage(inst, []) == 0
    twin = Instance.of(2, [[1, 2], [1, 2]], 2)
    assert coverage(twin, [0, 1]) == 2


def test_coverage_validates_indices():
    inst = Instance.of(2, [[1]], 1)
    with pytest.raises(ValueError, match="out of range"):
        coverage(inst, [1])
    with pytest.raises(ValueError, match="duplicate set index"):
        coverage(inst, [0, 0])


def test_coverage_is_monotone_and_matches_set_union():
    rand = random.Random(13)
    for _ in range(40):
        inst = random_instance(rand, rand.randint(1, 10), rand.randint(1, 8),
                               2, p_max=rand.randint(1, 4), min_freq=0)
        indices = list(range(inst.m))
        rand.shuffle(indices)
        chosen = []
        prev = 0
        for i in indices:
            chosen.append(i)
            cov = coverage(inst, chosen)
            assert cov >= prev
            assert cov == union_coverage(inst, chosen)
            prev = cov


# ---------------------------------------------------------------------------
# Inclusion-exclusion
# ---------------------------------------------------------------------------

def test_inclusion_exclusion_two_sets():
    inst = Instance.of(3, [[1, 2], [2, 3]], 2)
    assert coverage_inclusion_exclusion(inst, [0, 1], 2) == 3


def test_inclusion_exclusion_single_set():
    inst = Instance.of(4, [[1, 2, 3], [4]], 1)
    for i, s in enumerate(inst.sets):
        assert coverage_inclusion_exclusion(inst, [i], 1) == len(s)


def test_inclusion_exclusion_matches_coverage():
    rand = random.Random(17)
    for _ in range(25):
        inst = random_instance(rand, rand.randint(1, 9), rand.randint(1, 7),
                               3, p_max=3, min_freq=0)
        for k in range(0, min(4, inst.m) + 1):
            for combo in combinations(range(inst.m), k):
                assert coverage_inclusion_exclusion(inst, combo, 3) == coverage(inst, combo)


def test_inclusion_exclusion_rejects_frequency_violation():
    inst = Instance.of(2, [[1, 2], [1], [1]], 2)
    with pytest.raises(ValueError, match="element 1 appears in 3 sets"):
        coverage_inclusion_exclusion(inst, [0, 1], 2)


def test_frequency_bound_messages_of_every_caller():
    inst = Instance.of(2, [[1, 2], [1], [1]], 2)
    calls = {
        "bound": [lambda p: fpt_approx(inst, p, 0.5),
                  lambda p: randomized_min_noncovered(inst, p, 2.0, 0.5, 0)],
        "cap": [lambda p: coverage_inclusion_exclusion(inst, [0, 1], p)],
    }
    for word, fns in calls.items():
        for fn in fns:
            with pytest.raises(ValueError) as err:
                fn(2)
            assert str(err.value) == f"element 1 appears in 3 sets, above the {word} p=2"
            with pytest.raises(ValueError) as err:
                fn(0)
            assert str(err.value) == f"frequency {word} must be positive, got 0"


# ---------------------------------------------------------------------------
# Approval elections
# ---------------------------------------------------------------------------

def test_election_reduction_example():
    election = ApprovalElection(2, 3, ((1,), (1, 2), (2,)), 1)
    assert election_to_maxcover(election) == Instance(3, ((1, 2), (2, 3)), 1)


def test_election_voter_approving_nobody_is_never_coverable():
    election = ApprovalElection(2, 3, ((1,), (), (2,)), 2)
    inst = election_to_maxcover(election)
    assert all(2 not in s for s in inst.sets)
    assert coverage(inst, [0, 1]) == 2


def test_election_misrepresentation_equals_uncovered():
    rand = random.Random(19)
    for _ in range(30):
        candidates = rand.randint(1, 6)
        voters = rand.randint(1, 8)
        ballots = tuple(
            tuple(sorted(rand.sample(range(1, candidates + 1), rand.randint(0, candidates))))
            for _ in range(voters)
        )
        k = rand.randint(1, candidates)
        election = ApprovalElection(candidates, voters, ballots, k)
        inst = election_to_maxcover(election)
        committee = rand.sample(range(candidates), k)
        misrep = sum(
            1 for ballot in ballots if not any(c - 1 in committee for c in ballot)
        )
        assert inst.n - coverage(inst, committee) == misrep


def test_parse_election_document():
    election = parse_election("p approval 2 3 1\nv 1\nv 1 2\nv 2\n")
    assert election == ApprovalElection(2, 3, ((1,), (1, 2), (2,)), 1)
    with pytest.raises(ParseError, match="candidate id 5 out of range"):
        parse_election("p approval 2 1 1\nv 5")
    with pytest.raises(ParseError, match="expected a ballot line"):
        parse_election("p approval 2 1 1\ns 1")


# ---------------------------------------------------------------------------
# Frequency padding
# ---------------------------------------------------------------------------

def test_pad_example():
    inst = Instance.of(2, [[1, 2]], 1)
    assert pad_frequencies(inst, 2).sets == ((1, 2), (1,), (2,))


def test_pad_identity_for_p1():
    inst = Instance.of(2, [[1, 2]], 1)
    assert pad_frequencies(inst, 1) == inst


def test_pad_reaches_min_frequency():
    rand = random.Random(23)
    for _ in range(25):
        inst = random_instance(rand, rand.randint(1, 8), rand.randint(1, 6),
                               2, p_max=rand.randint(1, 3))
        p = rand.randint(1, 4)
        padded = pad_frequencies(inst, p)
        assert frequency_profile(padded).p_min >= p
        assert (padded.n, padded.k) == (inst.n, inst.k)
        assert padded.sets[: inst.m] == inst.sets


def test_pad_rejects_uncoverable_element():
    inst = Instance(2, ((1,),), 1)
    with pytest.raises(ValueError, match="element 2 belongs to no set"):
        pad_frequencies(inst, 2)


def test_pad_preserves_original_set_coverage():
    rand = random.Random(29)
    for _ in range(20):
        inst = random_instance(rand, rand.randint(1, 8), rand.randint(1, 6),
                               2, p_max=rand.randint(1, 3))
        padded = pad_frequencies(inst, rand.randint(2, 4))
        for k in range(min(3, inst.m) + 1):
            combo = rand.sample(range(inst.m), k)
            assert coverage(inst, combo) == coverage(padded, combo)


# ---------------------------------------------------------------------------
# Graph documents
# ---------------------------------------------------------------------------

def test_parse_graph_document():
    g = parse_graph("p graph 3 3 1\ne 1 2\ne 2 3\ne 1 3\n")
    assert g.num_vertices == 3
    assert g.edges == ((1, 2), (2, 3), (1, 3))
    assert g.k == 1
    with pytest.raises(ParseError, match="vertex id 4 out of range"):
        parse_graph("p graph 3 1 1\ne 1 4")
    with pytest.raises(ParseError, match="expected an edge line"):
        parse_graph("p graph 3 1 1\ne 1 2 3")
