"""Data model, document formats, coverage kernels, and reductions."""

import copy
import dataclasses
import pickle
import random
import sys
import threading
from itertools import combinations

import numpy as np
import pytest

import maxcover
from maxcover import (
    ApprovalElection,
    Instance,
    ParseError,
    TightFptSpec,
    TightGreedySpec,
    coverage,
    coverage_inclusion_exclusion,
    document_kind,
    election_to_maxcover,
    exact_then_greedy,
    fpt_approx,
    frequency_profile,
    gen_tight_fpt,
    gen_tight_greedy,
    graph_to_maxvertexcover,
    greedy_then_exact,
    pad_frequencies,
    parse_election,
    parse_graph,
    parse_instance,
    randomized_min_noncovered,
    serialize_instance,
    set_masks,
)
from maxcover.cli import load_instance_text, main
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


def test_non_integer_ids_are_rejected_before_the_range_test():
    cases = [
        (lambda: Instance(4, ((1.5, 1.7), (2,)), 1), "element id 1.5 is not an integer in set 0"),
        (lambda: Instance(4, ((1,), (2.0,)), 1), "element id 2.0 is not an integer in set 1"),
        (lambda: Instance(4, ((0.5,),), 1), "element id 0.5 is not an integer in set 0"),
        (lambda: Instance.of(4, [[2, 1.5]], 1), "element id 1.5 is not an integer in set 0"),
        (lambda: Instance(4, (("1",),), 1), "element id 1 is not an integer in set 0"),
        (lambda: ApprovalElection(3, 1, ((1.5, 2.5),), 1), "voter 1 approves non-integer candidate 1.5"),
        (lambda: ApprovalElection(3, 2, ((1,), (9.5,)), 1), "voter 2 approves non-integer candidate 9.5"),
    ]
    for build, message in cases:
        with pytest.raises(ValueError) as err:
            build()
        assert str(err.value) == message
    # Integral ids of other types stay accepted, and count as their values.
    inst = Instance(3, ((np.int64(1), np.int64(3)), (True, 2)), 1)
    assert frequency_profile(inst).freq == (2, 1, 1)
    assert election_to_maxcover(ApprovalElection(2, 1, ((np.int64(2),),), 1)).sets == ((), (1,))


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
# Masks and profile built on first use
# ---------------------------------------------------------------------------

APPROVAL_EXAMPLE = "p approval 3 4 2\nv 1 2\nv\nv 3\nv 1 3\n"

SOURCES = [
    lambda: parse_instance("p maxcover 9 3 2\ns 9 1 2\ns 3 9\ns\n"),
    lambda: election_to_maxcover(parse_election(APPROVAL_EXAMPLE)),
    lambda: graph_to_maxvertexcover(3, [(1, 2), (2, 3)], 1),
    lambda: Instance(9, ((1, 2, 9), (3, 9), ()), 2),
    lambda: Instance.of(9, [[9, 2, 1, 1], [3, 9], []], 2),
    lambda: gen_tight_greedy(TightGreedySpec(p=2, k=2, m=3)),
    lambda: gen_tight_fpt(TightFptSpec(p=1, k=1, beta=0.5)),
]


@pytest.mark.parametrize("make", SOURCES)
def test_built_masks_and_profile_are_invisible(make):
    plain, inst = make(), make()
    before = pickle.dumps(inst)
    masks, profile = set_masks(inst), frequency_profile(inst)
    coverage(inst, [0])
    assert inst == plain and hash(inst) == hash(plain) and repr(inst) == repr(plain)
    assert [f.name for f in dataclasses.fields(inst)] == ["n", "sets", "k"]
    assert dataclasses.replace(inst) == plain
    assert dataclasses.replace(inst, k=0) == dataclasses.replace(plain, k=0)
    assert pickle.dumps(inst) == before == pickle.dumps(plain)
    for twin in (pickle.loads(before), copy.copy(inst), copy.deepcopy(inst)):
        assert twin == inst and pickle.dumps(twin) == before
        assert set_masks(twin) == masks and frequency_profile(twin) == profile


def checked_twin(value):
    """The value that the public constructor builds from the fields."""
    return type(value)(*(getattr(value, f.name) for f in dataclasses.fields(value)))


def budget_raised(value):
    """``replace`` of the last field, the budget (``k``, ``committee_size``)."""
    budget = dataclasses.fields(value)[-1].name
    return dataclasses.replace(value, **{budget: getattr(value, budget) + 1})


# What a value shows of itself, read from a fresh value each time.
VIEWS = [
    repr,
    hash,
    pickle.dumps,
    lambda value: pickle.dumps(copy.copy(value)),
    lambda value: pickle.dumps(copy.deepcopy(value)),
    lambda value: pickle.loads(pickle.dumps(value)) == checked_twin(value),
    lambda value: [f.name for f in dataclasses.fields(value)],
    lambda value: repr(budget_raised(value)),
]

# Every builder of SOURCES, and the CLI's approval load, which reduces the
# parser's arrays.
LAZY_SOURCES = SOURCES + [lambda: load_instance_text(APPROVAL_EXAMPLE)]

# A parsed election, one whose ballots share their ints (more ids than
# candidates, and candidates past 256), and a caller-built one.
ELECTION_SOURCES = [
    lambda: parse_election(APPROVAL_EXAMPLE),
    lambda: parse_election(f"p approval 300 3 2\nv {' '.join(map(str, range(1, 301)))}\nv 300 299\nv\n"),
    lambda: ApprovalElection(3, 4, ((1, 2), (), (3,), (1, 3)), 2),
]


def assert_read_first_or_later_give_the_same_value(make, field, views):
    def read_first():
        value = make()
        getattr(value, field)
        return value

    plain = read_first()
    assert make() == plain and plain == make()
    for view in views:
        assert view(make()) == view(read_first())
    assert set(copy.copy(make()).__dict__) == {f.name for f in dataclasses.fields(plain)}


@pytest.mark.parametrize("make", LAZY_SOURCES)
def test_sets_read_first_or_later_give_the_same_value(make):
    views = VIEWS + [lambda inst: (inst.m, inst.effective_budget)]
    assert_read_first_or_later_give_the_same_value(make, "sets", views)


@pytest.mark.parametrize("make", ELECTION_SOURCES)
def test_approvals_read_first_or_later_give_the_same_value(make):
    views = VIEWS + [lambda election: election_to_maxcover(election)]
    assert_read_first_or_later_give_the_same_value(make, "approvals", views)


def test_sets_are_built_on_first_read_only_for_arrays():
    # A caller-built instance holds its sets from the start; every other one
    # holds id arrays, and makes its tuples when they are first read.
    for make in LAZY_SOURCES:
        inst = make()
        caller_built = "_ids" not in inst.__dict__
        assert ("sets" in inst.__dict__) == caller_built
        inst.m, inst.effective_budget, set_masks(inst), frequency_profile(inst)
        assert ("sets" in inst.__dict__) == caller_built
        assert inst.sets is inst.sets
    with pytest.raises(AttributeError, match="has no attribute 'missing'"):
        SOURCES[0]().missing


def test_approvals_are_built_on_first_read_only_for_arrays():
    # The parser's election holds its ballots' id arrays, and neither the
    # reduction nor a look at its counts makes the tuples.
    for make in ELECTION_SOURCES:
        election = make()
        caller_built = "_ids" not in election.__dict__
        assert ("approvals" in election.__dict__) == caller_built
        election_to_maxcover(election), election.num_voters, election.committee_size
        assert ("approvals" in election.__dict__) == caller_built
        assert election.approvals is election.approvals
    assert parse_election(APPROVAL_EXAMPLE).approvals == ((1, 2), (), (3,), (1, 3))
    with pytest.raises(AttributeError, match="'ApprovalElection' object has no attribute 'sets'"):
        parse_election(APPROVAL_EXAMPLE).sets


def test_reduced_election_is_unchanged():
    plain, election = parse_election(APPROVAL_EXAMPLE), parse_election(APPROVAL_EXAMPLE)
    before = pickle.dumps(election)
    election_to_maxcover(election)
    assert election == plain and hash(election) == hash(plain) and repr(election) == repr(plain)
    assert pickle.dumps(election) == before == pickle.dumps(plain)
    assert election_to_maxcover(election) == election_to_maxcover(plain)


def test_mutating_the_returned_masks_changes_no_later_result():
    inst = SOURCES[0]()
    masks = set_masks(inst)
    want = list(masks)
    masks[0] = 0
    masks.append(1)
    masks.reverse()
    assert set_masks(inst) == want
    assert set_masks(inst) is not set_masks(inst)


def test_set_masks_refuses_a_build_above_the_ceiling(monkeypatch):
    # Three sets of ceil(17 / 8) = 3 bytes: 9 bytes of masks.
    inst = Instance.of(17, [[1], [17], []], 1)
    monkeypatch.setattr(maxcover.core, "MAX_MASK_BYTES", 8)
    with pytest.raises(ValueError, match="^masks need 9 bytes, above the ceiling 8$"):
        set_masks(inst)
    monkeypatch.setattr(maxcover.core, "MAX_MASK_BYTES", 9)
    assert set_masks(inst) == [1, 1 << 16, 0]


def test_threads_racing_to_build_masks_and_profile_read_one_value():
    plain = maxcover.gen_random(3000, 60, 5, 3, 1)
    want = (set_masks(plain), frequency_profile(plain), plain.sets)
    text = serialize_instance(plain)
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        # Nothing built yet: a caller-built instance has no arrays, and a
        # parsed one no tuples.
        for make in [lambda: Instance(plain.n, plain.sets, plain.k), lambda: parse_instance(text)] * 15:
            inst = make()
            got = []
            threads = [threading.Thread(target=lambda: got.append((set_masks(inst), frequency_profile(inst), inst.sets)))
                       for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            assert len(got) == 8 and all(forms == want for forms in got)
            # Every thread reads the one profile, and the one tuple of sets, stored first.
            assert len({id(p) for _, p, _ in got}) == 1 and len({id(sets) for *_, sets in got}) == 1
    finally:
        sys.setswitchinterval(old)


def test_compare_builds_masks_and_profile_once(tmp_path, monkeypatch, capsys):
    calls = []
    for name in ("_pack", "_count_profile"):
        def counted(*args, name=name, real=getattr(maxcover.core, name)):
            calls.append(name)
            return real(*args)
        monkeypatch.setattr(maxcover.core, name, counted)
    doc = tmp_path / "inst.mc"
    doc.write_text("p maxcover 4 3 2\ns 1 2 3\ns 3 4\ns 4\n")
    argv = ["compare", "--algs", "greedy,ptas,exact,fpt,greedy-exact", "--alpha", "0.2", "--beta", "0.5",
            "--x", "1", "--with-opt", "--in", str(doc)]
    assert main(argv) == 0
    assert sorted(calls) == ["_count_profile", "_pack"]


def test_solvers_read_masks_through_their_module_global(monkeypatch):
    # greedy_cover counts on the id rows and reads no masks. The greedy
    # module's mask path, extend_greedily, runs in exact_then_greedy's finish
    # on the masks that hybrid reads.
    called = []
    modules = [maxcover.exact, maxcover.fpt, maxcover.hybrid, maxcover.minnoncovered]
    for module in modules:
        def spy(inst, name=module.__name__, real=module.set_masks):
            called.append(name)
            return real(inst)
        monkeypatch.setattr(module, "set_masks", spy)
    inst = SOURCES[0]()
    maxcover.greedy_cover(inst)
    assert called == []
    maxcover.brute_force(inst)
    fpt_approx(inst, 2, 0.5)
    greedy_then_exact(inst, 1)
    exact_then_greedy(inst, 1)
    randomized_min_noncovered(inst, 2, 2.0, 0.5, 0)
    assert sorted(set(called)) == sorted(module.__name__ for module in modules)


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
    for _ in range(2):  # with the masks kept the second time
        with pytest.raises(ValueError, match="out of range"):
            coverage(inst, [1])
        with pytest.raises(ValueError, match="duplicate set index"):
            coverage(inst, [0, 0])
        set_masks(inst)


def test_coverage_is_monotone_and_matches_set_union():
    # ``built`` has its masks kept; coverage reads the rows of ids either way.
    rand = random.Random(13)
    for _ in range(40):
        inst = random_instance(rand, rand.randint(1, 10), rand.randint(1, 8),
                               2, p_max=rand.randint(1, 4), min_freq=0)
        built = dataclasses.replace(inst)
        set_masks(built)
        indices = list(range(inst.m))
        rand.shuffle(indices)
        chosen = []
        prev = 0
        for i in indices:
            chosen.append(i)
            cov = coverage(inst, chosen)
            assert cov >= prev
            assert cov == union_coverage(inst, chosen) == coverage(built, chosen)
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
