import itertools
import operator
from types import SimpleNamespace

import numpy as np
import pytest

from cpshop import expert, model
from cpshop.env import JobShopEnv
from cpshop.expert import complete_prefix, improve, solve_exact
from cpshop.instances import Instance, Operation, generate_instance, parse_instance_text
from cpshop.model import (
    OperationIndex,
    Solution,
    compress,
    earliest_starts,
    machine_sequences,
    validate,
)
from cpshop.rules import RulePolicy, greedy_rollout, rollout
from test_env import uneven_instance


def brute_force_makespan(instance):
    """Optimal makespan by enumerating every dispatch interleaving."""
    n_ops = [len(ops) for ops in instance.jobs]
    order_pool = [j for j, n in enumerate(n_ops) for _ in range(n)]
    best = np.inf
    for order in set(itertools.permutations(order_pool)):
        cursor = [0] * instance.job_count
        job_end = [0] * instance.job_count
        release = [0] * instance.machine_count
        for j in order:
            op = instance.jobs[j][cursor[j]]
            s = max(job_end[j], release[op.machine])
            job_end[j] = s + op.processing_time
            release[op.machine] = job_end[j]
            cursor[j] += 1
        best = min(best, max(job_end))
    return int(best)


def test_exact_on_tiny_known_instance():
    inst = parse_instance_text("2 2\n0 3 1 2\n1 4 0 1\n", "orlib", name="tiny")
    result = solve_exact(inst)
    assert result.certified
    assert validate(inst, result.solution)
    assert result.solution.makespan == brute_force_makespan(inst)


def test_exact_matches_enumeration_on_random_3x3():
    rng = np.random.default_rng(0)
    square = [
        generate_instance(3, 3, seed=int(rng.integers(1 << 30)), low=1, high=9) for _ in range(8)
    ]
    # jobs of 1..3 operations: ragged remaining work per job and machine
    uneven = [uneven_instance(3, 3, rng) for _ in range(4)]
    for inst in square + uneven:
        result = solve_exact(inst)
        assert result.certified
        assert validate(inst, result.solution)
        assert result.solution.makespan == brute_force_makespan(inst)


def test_exact_never_above_dispatch_heuristics():
    for trial in range(5):
        inst = generate_instance(4, 4, seed=50 + trial)
        result = solve_exact(inst)
        heuristic = min(
            greedy_rollout(inst, RulePolicy(rule)).makespan
            for rule in ("fifo", "spt", "mtwr")
        )
        assert result.solution.makespan <= heuristic


def test_exact_budget_gives_uncertified_incumbent():
    inst = generate_instance(8, 8, seed=1)
    result = solve_exact(inst, node_limit=500)
    assert not result.certified
    assert validate(inst, result.solution)


@pytest.mark.parametrize("jobs,machines", [(50, 20), (100, 20)])
def test_exact_budget_on_large_instances(jobs, machines):
    # the search goes one level deeper per scheduled operation: 1000 and
    # 2000 levels here
    inst = generate_instance(jobs, machines, seed=5)
    result = solve_exact(inst, node_limit=5000)
    assert not result.certified
    assert result.nodes == 5001
    assert validate(inst, result.solution)


def test_exact_zero_budget_still_returns_a_schedule():
    # the deadline passes before the first dive completes
    inst = generate_instance(30, 10, seed=6)
    result = solve_exact(inst, time_limit=0.0)
    assert not result.certified
    assert validate(inst, result.solution)


def test_exact_reports_node_count():
    inst = generate_instance(3, 3, seed=2)
    result = solve_exact(inst)
    assert result.nodes >= inst.total_operations


# -- local search ------------------------------------------------------


def tails_and_critical(index, heads, order, machine_next, makespan):
    """Tails (longest path from each operation's end to the sink, by one
    reverse pass over ``order``) and whether each operation lies on a
    longest path: head + p + tail equals the makespan."""
    proc, job_next = index.proc, index.job_next
    tails = [0] * len(proc)
    for o in reversed(order):
        tail = 0
        for succ in (job_next[o], machine_next[o]):
            if succ >= 0 and proc[succ] + tails[succ] > tail:
                tail = proc[succ] + tails[succ]
        tails[o] = tail
    return tails, [h + p + t == makespan for h, p, t in zip(heads, proc, tails)]


def tight_arc_critical(index, seqs, heads):
    """Reference critical set: every operation reached from one that ends
    at the makespan by walking back along tight job and machine arcs."""
    proc = index.proc
    ends = [h + p for h, p in zip(heads, proc)]
    makespan = max(ends)
    job_prev = {b: a for a, b in enumerate(index.job_next) if b >= 0}
    machine_prev = {b: a for seq in seqs for a, b in zip(seq, seq[1:])}
    critical = set()
    stack = [o for o, e in enumerate(ends) if e == makespan]
    while stack:
        o = stack.pop()
        if o in critical:
            continue
        critical.add(o)
        for prev in (job_prev.get(o), machine_prev.get(o)):
            if prev is not None and ends[prev] == heads[o]:
                stack.append(prev)
    return critical


def critical_pairs(seqs, critical):
    return [
        (m, i)
        for m, seq in enumerate(seqs)
        for i in range(len(seq) - 1)
        if seq[i] in critical and seq[i + 1] in critical
    ]


def reference_swap_bound(index, heads, tails, seq, i):
    """The swap screen read off one machine sequence, job predecessors
    rebuilt from ``job_next`` and each missing neighbour a branch:
    the longest path through ``seq[i]`` and ``seq[i + 1]`` once swapped."""
    proc, job_next = index.proc, index.job_next
    u, v = seq[i], seq[i + 1]
    head_v = heads[v - 1] + proc[v - 1] if v and job_next[v - 1] == v else 0
    if i:
        head_v = max(head_v, heads[seq[i - 1]] + proc[seq[i - 1]])
    tail_u = proc[job_next[u]] + tails[job_next[u]] if job_next[u] >= 0 else 0
    if i + 2 < len(seq):
        tail_u = max(tail_u, proc[seq[i + 2]] + tails[seq[i + 2]])
    into_u = heads[u - 1] + proc[u - 1] if u and job_next[u - 1] == u else 0
    from_v = proc[job_next[v]] + tails[job_next[v]] if job_next[v] >= 0 else 0
    return max(into_u + proc[u] + tail_u, head_v + proc[v] + max(from_v, proc[u] + tail_u))


def reference_on_every_longest_path(index, heads, spans, u, v):
    """The cover test over ``spans``, the (head, end) of every critical
    operation: the arc ``u -> v`` is tight and only ``u`` and ``v`` cover
    ``heads[v]``."""
    t = heads[v]
    return heads[u] + index.proc[u] == t and sum(h <= t <= e for h, e in spans) == 2


def test_head_tail_critical_matches_tight_arc_search():
    rng = np.random.default_rng(17)
    checked = 0
    for jobs, machines in [(3, 3), (5, 5), (8, 4), (10, 10), (20, 5)]:
        for trial in range(4):
            inst = generate_instance(jobs, machines, seed=int(rng.integers(1 << 30)))
            index = OperationIndex.of(inst)
            base = greedy_rollout(inst, RulePolicy(("spt", "mtwr")[trial % 2]))
            seqs = machine_sequences(inst, base)
            for _ in range(4):
                heads, order, machine_next = earliest_starts(index, seqs)
                makespan = index.makespan(heads)
                _, flags = tails_and_critical(index, heads, order, machine_next, makespan)
                reference = tight_arc_critical(index, seqs, heads)
                assert {o for o, c in enumerate(flags) if c} == reference
                assert critical_pairs(seqs, reference) == [
                    (m, i)
                    for m, seq in enumerate(seqs)
                    for i in range(len(seq) - 1)
                    if flags[seq[i]] and flags[seq[i + 1]]
                ]
                checked += 1
                # then a few random adjacent swaps that keep the graph acyclic
                for _ in range(3):
                    m = int(rng.integers(machines))
                    i = int(rng.integers(len(seqs[m]) - 1))
                    seqs[m][i], seqs[m][i + 1] = seqs[m][i + 1], seqs[m][i]
                    if earliest_starts(index, seqs) is None:
                        seqs[m][i], seqs[m][i + 1] = seqs[m][i + 1], seqs[m][i]
    assert checked >= 50


def test_swap_bound_is_a_path_length_after_every_acyclic_swap():
    """The screen's bound is the longest path through the swapped pair, so
    it never exceeds the makespan that a full re-timing finds."""
    rng = np.random.default_rng(29)
    checked = tight = 0
    for trial in range(24):
        if trial % 3 == 2:
            inst = uneven_instance(int(rng.integers(4, 12)), int(rng.integers(2, 7)), rng)
        else:
            inst = generate_instance(int(rng.integers(3, 12)), int(rng.integers(2, 8)),
                                     seed=int(rng.integers(1 << 30)))
        base = greedy_rollout(inst, RulePolicy(("fifo", "spt", "mtwr")[trial % 3]))
        if trial % 2:  # a schedule from a search with its first half pinned
            pinned = {(j, k) for j, ops in enumerate(inst.jobs) for k in range(len(ops) // 2)}
            base = improve(inst, base, evals=100, seed=trial, pinned=pinned)
        index = OperationIndex.of(inst)
        seqs = machine_sequences(inst, base)
        timing = expert._Timing(index, seqs)
        for m, seq in enumerate(seqs):
            for i in range(len(seq) - 1):
                bound = timing.swap_bound(m, i)
                u, v = seq[i], seq[i + 1]
                seq[i], seq[i + 1] = v, u
                result = earliest_starts(index, seqs)
                seq[i], seq[i + 1] = u, v
                if result is None:
                    continue
                after = index.makespan(result[0])
                new_tails, _ = tails_and_critical(index, *result, after)
                through = [result[0][o] + index.proc[o] + new_tails[o] for o in (u, v)]
                assert bound == max(through) <= after
                checked += 1
                tight += bound == after
    assert checked >= 400 and tight >= 100


def test_cover_test_passes_exactly_the_improving_screened_swaps():
    """Past the head/tail screen, a critical swap improves exactly when every
    longest path runs through its arc."""
    rng = np.random.default_rng(31)
    passed = improving = 0
    for trial in range(30):
        if trial % 3 == 2:
            inst = uneven_instance(int(rng.integers(4, 12)), int(rng.integers(2, 7)), rng)
        else:
            # short operations tie often, so many swaps some longest path avoids
            inst = generate_instance(int(rng.integers(4, 16)), int(rng.integers(3, 11)),
                                     seed=int(rng.integers(1 << 30)), high=(5, 99)[trial % 4 == 3])
        index = OperationIndex.of(inst)
        base = greedy_rollout(inst, RulePolicy(("fifo", "spt", "mtwr")[trial % 3]))
        if trial % 2:  # a schedule from a search with its first half pinned
            pinned = {(j, k) for j, ops in enumerate(inst.jobs) for k in range(len(ops) // 2)}
            base = improve(inst, base, evals=100, seed=trial, pinned=pinned)
        seqs = machine_sequences(inst, base)
        for _ in range(6):
            heads, order, machine_next = earliest_starts(index, seqs)
            makespan = index.makespan(heads)
            _, flags = tails_and_critical(index, heads, order, machine_next, makespan)
            critical = {o for o, c in enumerate(flags) if c}
            timing = expert._Timing(index, seqs)
            for m, i in critical_pairs(seqs, critical):
                if timing.swap_bound(m, i) >= makespan:
                    continue
                covered = timing.on_every_longest_path(critical, m, i)
                seq = seqs[m]
                u, v = seq[i], seq[i + 1]
                seq[i], seq[i + 1] = v, u
                result = earliest_starts(index, seqs)
                seq[i], seq[i + 1] = u, v
                better = result is not None and index.makespan(result[0]) < makespan
                assert covered == better
                passed += 1
                improving += better
            # then perturb: a few random adjacent swaps that keep the graph acyclic
            for _ in range(3):
                seq = seqs[int(rng.integers(len(seqs)))]
                if len(seq) > 1:
                    i = int(rng.integers(len(seq) - 1))
                    seq[i], seq[i + 1] = seq[i + 1], seq[i]
                    if earliest_starts(index, seqs) is None:
                        seq[i], seq[i + 1] = seq[i + 1], seq[i]
    assert improving >= 200 and passed - improving >= 50


def timing_state(timing):
    return ([seq.copy() for seq in timing.seqs], timing.order.copy(), timing.pos.copy(),
            timing.machine_prev.copy(), timing.machine_next.copy(), timing.heads.copy(),
            timing.tails.copy(), timing.place.copy())


def assert_timing_is_exact(index, timing, pins=frozenset()):
    """The kept heads and tails are a full re-timing's, and the kept order is
    topological with positions that agree with it. The kept makespan, the
    critical set of the tight-arc walk and the candidate pairs are those of
    the full re-timing, and so are the swap screen and the cover test of
    every adjacent pair. Returns how many critical pairs ``pins`` excludes."""
    heads, order, machine_next = earliest_starts(index, timing.seqs)
    makespan = index.makespan(heads)
    tails, flags = tails_and_critical(index, heads, order, machine_next, makespan)
    n = len(heads)
    assert timing.heads == [*heads, 0] and timing.tails == [*tails, 0]
    assert timing.machine_next == machine_next
    assert [timing.machine_prev[b] for seq in timing.seqs for b in seq[1:]] == [
        a for seq in timing.seqs for a in seq[:-1]
    ]
    assert [timing.place[o] for seq in timing.seqs for o in seq] == [
        (m, i) for m, seq in enumerate(timing.seqs) for i in range(len(seq))
    ]
    assert sorted(timing.order) == list(range(n))
    assert [timing.pos[o] for o in timing.order] == list(range(n))
    for o in range(n):
        for succ in (index.job_next[o], machine_next[o]):
            assert succ < 0 or timing.pos[o] < timing.pos[succ]
    assert timing.makespan() == makespan
    critical = timing.critical(makespan)
    assert critical == {o for o, c in enumerate(flags) if c}
    assert critical == tight_arc_critical(index, timing.seqs, heads)
    movable = [(m, i) for m, seq in enumerate(timing.seqs) for i in range(len(seq) - 1)
               if seq[i] not in pins and seq[i + 1] not in pins]
    candidates = timing.candidates(critical, pins)
    assert candidates == [
        (m, i) for m, i in movable if flags[timing.seqs[m][i]] and flags[timing.seqs[m][i + 1]]
    ]
    spans = [(heads[o], heads[o] + index.proc[o]) for o in critical]
    for m, seq in enumerate(timing.seqs):
        for i in range(len(seq) - 1):
            assert timing.swap_bound(m, i) == reference_swap_bound(index, heads, tails, seq, i)
            assert timing.on_every_longest_path(critical, m, i) == reference_on_every_longest_path(
                index, heads, spans, seq[i], seq[i + 1])
    return len(critical_pairs(timing.seqs, critical)) - len(candidates)


def test_kept_timing_matches_a_full_retiming_after_every_swap():
    """After every critical, random and cyclic adjacent swap, the heads,
    tails and order kept across swaps equal those of a full re-timing, and
    so do the makespan, the critical set and the candidate pairs read off
    them; a swap that would close a cycle changes nothing."""
    rng = np.random.default_rng(43)
    kept = critical_swaps = cyclic = pinned_out = 0
    for trial in range(36):
        if trial % 3 == 2:
            inst = uneven_instance(int(rng.integers(4, 12)), int(rng.integers(2, 7)), rng)
        else:
            inst = generate_instance(int(rng.integers(6, 16)), int(rng.integers(4, 16)),
                                     seed=int(rng.integers(1 << 30)))
        base = greedy_rollout(inst, RulePolicy(("fifo", "spt", "mtwr")[trial % 3]))
        index = OperationIndex.of(inst)
        pins = set()
        if trial % 2:  # a schedule from a search with its first half pinned
            pinned = {(j, k) for j, ops in enumerate(inst.jobs) for k in range(len(ops) // 2)}
            base = improve(inst, base, evals=100, seed=trial, pinned=pinned)
            pins = {index.first[j] + k for j, k in pinned}
        timing = expert._Timing(index, machine_sequences(inst, base))
        pinned_out += assert_timing_is_exact(index, timing, pins)
        pairs = [(m, i) for m, seq in enumerate(timing.seqs) for i in range(len(seq) - 1)]
        for step in range(30):
            if step % 2:
                makespan = index.makespan(timing.heads)
                flags = [h + p + t == makespan
                         for h, p, t in zip(timing.heads, index.proc, timing.tails)]
                options = [(m, i) for m, i in pairs
                           if flags[timing.seqs[m][i]] and flags[timing.seqs[m][i + 1]]]
            else:
                options = pairs
            if not options:
                continue
            m, i = options[int(rng.integers(len(options)))]
            before = timing_state(timing)
            if timing.swap(m, i):
                kept += 1
                critical_swaps += step % 2
                assert timing.seqs[m][i:i + 2] == before[0][m][i:i + 2][::-1]
            else:
                cyclic += 1
                assert timing_state(timing) == before
            pinned_out += assert_timing_is_exact(index, timing, pins)
    assert kept >= 800 and critical_swaps >= 400 and cyclic >= 40 and pinned_out >= 1000


def test_improve_retimes_a_candidate_only_when_it_improves(monkeypatch):
    # every re-timing that no perturbation draw precedes is a screened
    # candidate, and each of those lowers the makespan
    inst = generate_instance(15, 15, seed=3)
    base = greedy_rollout(inst, RulePolicy("mtwr"))
    draws, calls = [], []
    default_rng = np.random.default_rng

    class CountingGenerator:
        def __init__(self, seed):
            self.rng = default_rng(seed)

        def integers(self, *args):
            draws.append(len(calls))
            return self.rng.integers(*args)

    def counting(timing, m, i, _swap=expert._Timing.swap):
        acyclic = _swap(timing, m, i)
        calls.append(max(map(operator.add, timing.heads, timing.proc)) if acyclic else None)
        return acyclic

    monkeypatch.setattr(np.random, "default_rng", CountingGenerator)
    monkeypatch.setattr(expert._Timing, "swap", counting)
    out = improve(inst, base, evals=3000, patience=20, seed=4)
    assert out.makespan < base.makespan
    perturbations = set(draws)
    current = compress(inst, base).makespan  # the start
    candidates = 0
    for n, makespan in enumerate(calls):
        if n in perturbations:
            if makespan is not None:  # an acyclic perturbation is kept
                current = makespan
            continue
        assert makespan is not None and makespan < current
        current = makespan
        candidates += 1
    assert candidates >= 10 and len(perturbations) >= 10


def test_improve_returns_the_best_schedule_it_saw(monkeypatch):
    # perturbations carry the search past its best schedule, so the last
    # swap leaves it longer than the one it must return
    inst = generate_instance(15, 15, seed=3)
    base = greedy_rollout(inst, RulePolicy("mtwr"))
    index = OperationIndex.of(inst)
    seen = []

    def recording(timing, m, i, _swap=expert._Timing.swap):
        acyclic = _swap(timing, m, i)
        seen.append(index.makespan(timing.heads))
        return acyclic

    monkeypatch.setattr(expert._Timing, "swap", recording)
    out = improve(inst, base, evals=3000, patience=20, seed=2)
    assert validate(inst, out)
    start = compress(inst, base).makespan
    assert out.makespan == min(start, *seen)
    assert out.makespan < start and seen[-1] > out.makespan and len(seen) >= 50


def test_improve_and_solve_exact_reject_a_nan_time_limit():
    inst = generate_instance(10, 5, seed=1)
    base = greedy_rollout(inst, RulePolicy("mtwr"))
    nan, inf = float("nan"), float("inf")
    with pytest.raises(ValueError, match="time_limit must be a number of seconds, not nan"):
        improve(inst, base, evals=10, time_limit=nan)
    with pytest.raises(ValueError, match="time_limit must be a number of seconds, not nan"):
        solve_exact(inst, time_limit=nan, node_limit=10)
    # an infinite limit is no limit
    assert improve(inst, base, evals=300, seed=1, time_limit=inf) == improve(
        inst, base, evals=300, seed=1)
    assert solve_exact(inst, time_limit=inf, node_limit=500) == solve_exact(inst, node_limit=500)


def test_improve_never_worsens():
    rng = np.random.default_rng(3)
    for trial in range(8):
        if trial < 6:
            inst = generate_instance(6, 6, seed=600 + trial)
        else:
            inst = uneven_instance(8, 6, rng)
        base = greedy_rollout(inst, RulePolicy("spt"))
        out = improve(inst, base, evals=500, seed=trial)
        assert validate(inst, out)
        assert out.makespan <= base.makespan


def test_improve_zero_evals_compresses_only():
    inst = generate_instance(5, 5, seed=4)
    base = greedy_rollout(inst, RulePolicy("fifo"))
    out = improve(inst, base, evals=0)
    assert out.makespan <= base.makespan
    assert out == compress(inst, out)


def test_improve_evaluates_its_start_once(monkeypatch):
    inst = generate_instance(6, 6, seed=8)
    base = greedy_rollout(inst, RulePolicy("spt"))
    calls = []
    for module in (model, expert):  # compress evaluates through cpshop.model

        def counting(index, seqs, _evaluate=module.earliest_starts):
            calls.append(index)
            return _evaluate(index, seqs)

        monkeypatch.setattr(module, "earliest_starts", counting)
    monkeypatch.setattr(expert._Timing, "swap", lambda timing, m, i: calls.append((m, i)))
    out = improve(inst, base, evals=0)
    assert len(calls) == 1
    assert out == compress(inst, base)
    overlap = tuple((0,) * len(row) for row in base.starts)
    with pytest.raises(ValueError, match="infeasible"):
        improve(inst, Solution(inst.name, starts=overlap, makespan=base.makespan), evals=0)


def test_improve_finds_known_gain():
    # a schedule with a deliberately bad machine order that one critical
    # swap repairs: job 1's single op is queued behind the long job 0 op
    from cpshop.model import Solution

    inst = parse_instance_text("2 2\n0 9 1 1\n0 1 1 9\n", "orlib")
    # job 0 first on machine 0, so job 1 waits 9 time units
    bad = compress(
        inst,
        Solution(instance_name=inst.name, starts=((0, 9), (9, 10)), makespan=19),
    )
    out = improve(inst, bad, evals=200, seed=0)
    assert out.makespan < bad.makespan


def test_improve_stops_at_deadline_mid_pass(monkeypatch):
    # a fake clock that ticks once per re-timing puts the deadline inside
    # an improvement pass
    clock = [0.0]
    seen = []

    def ticking_swap(timing, m, i, _swap=expert._Timing.swap):
        seen.append(clock[0])
        clock[0] += 1.0
        return _swap(timing, m, i)

    monkeypatch.setattr(expert._Timing, "swap", ticking_swap)
    monkeypatch.setattr(expert, "time", SimpleNamespace(monotonic=lambda: clock[0]))
    inst = generate_instance(15, 15, seed=2)
    base = greedy_rollout(inst, RulePolicy("spt"))
    for limit in (3.5, 10.5, 40.5):
        clock[0] = 0.0
        seen.clear()
        out = improve(inst, base, evals=10**6, patience=10**6, time_limit=limit)
        assert validate(inst, out)
        assert out.makespan <= base.makespan
        assert max(seen) <= limit  # no re-timing starts after the deadline
        assert len(seen) == int(limit) + 1


def test_improve_respects_pins():
    inst = generate_instance(5, 5, seed=5)
    base = greedy_rollout(inst, RulePolicy("spt"))
    pinned = frozenset((j, 0) for j in range(inst.job_count))
    out = improve(inst, base, evals=800, seed=0, pinned=pinned)
    assert validate(inst, out)
    base_order = sorted(
        (base.starts[j][0], j) for j in range(inst.job_count)
    )
    out_order = sorted((out.starts[j][0], j) for j in range(inst.job_count))
    # pinned first ops keep their relative machine order
    by_machine_base = {}
    by_machine_out = {}
    for j in range(inst.job_count):
        m = inst.jobs[j][0].machine
        by_machine_base.setdefault(m, []).append((base.starts[j][0], j))
        by_machine_out.setdefault(m, []).append((out.starts[j][0], j))
    for m in by_machine_base:
        assert [j for _, j in sorted(by_machine_base[m])] == [
            j for _, j in sorted(by_machine_out[m])
        ]


def test_improve_rejects_pins_outside_the_instance():
    inst = uneven_instance(4, 3, np.random.default_rng(2))
    base = greedy_rollout(inst, RulePolicy("spt"))
    n0 = len(inst.jobs[0])
    for pin in [(0, n0), (0, -1), (-1, 0), (inst.job_count, 0), (1, 10**6)]:
        with pytest.raises(ValueError, match="not in the instance"):
            improve(inst, base, evals=10, pinned={pin})
    # the last operation of every job is a valid pin
    last = {(j, len(ops) - 1) for j, ops in enumerate(inst.jobs)}
    assert validate(inst, improve(inst, base, evals=10, pinned=last))


# -- prefix completion -------------------------------------------------


def random_prefix(inst, steps, seed):
    """An environment stepped through ``steps`` random job actions (all of
    them when ``steps`` is None), and the fixed (job, op, start) triples."""
    env = JobShopEnv(inst)
    obs = env.reset()
    fixed = []
    rng = np.random.default_rng(seed)
    while not env.done and (steps is None or len(fixed) < steps):
        a = int(rng.choice(np.flatnonzero(obs.mask[:-1])))
        k = int(env.model.cursor[a])
        obs = env.step(a).observation
        fixed.append((a, k, int(env.model.starts[a, k])))
    return env, fixed


def test_complete_prefix_empty_prefix():
    inst = generate_instance(4, 4, seed=6)
    cut = JobShopEnv(inst)
    cut.reset()
    sol = complete_prefix(inst, cut, evals=300)
    assert validate(inst, sol)


def test_complete_prefix_full_prefix_is_identity():
    inst = generate_instance(4, 4, seed=7)
    cut, _ = random_prefix(inst, None, seed=0)
    assert cut.done
    assert complete_prefix(inst, cut) == cut.solution()


def test_complete_prefix_preserves_prefix_starts():
    for inst in (generate_instance(5, 5, seed=8), uneven_instance(8, 5, np.random.default_rng(8))):
        cut, fixed = random_prefix(inst, 6, seed=1)
        sol = complete_prefix(inst, cut, evals=500)
        assert validate(inst, sol)
        for j, k, s in fixed:
            assert sol.starts[j][k] == s


def test_complete_prefix_leaves_the_cut_unchanged():
    inst = generate_instance(6, 6, seed=11)
    cut, _ = random_prefix(inst, 9, seed=3)
    obs = cut.observe()
    before = [a.copy() for a in (obs.features, obs.kinds, obs.mask, cut.model.cursor,
                                 cut.model.prev_end, cut.model.release, cut.model.starts)]
    state = (cut.t, cut.model.fixed_count)
    warm = greedy_rollout(inst, RulePolicy("spt"))
    complete_prefix(inst, cut, evals=200, warm=warm)
    assert cut.observe() is obs and (cut.t, cut.model.fixed_count) == state
    after = (obs.features, obs.kinds, obs.mask, cut.model.cursor, cut.model.prev_end,
             cut.model.release, cut.model.starts)
    for a, b in zip(before, after):
        assert a.tobytes() == b.tobytes()


def test_complete_prefix_warm_start_can_win():
    inst = generate_instance(5, 5, seed=9)
    warm = improve(inst, greedy_rollout(inst, RulePolicy("mtwr")), evals=2000, seed=0)
    cut = JobShopEnv(inst)
    cut.reset()
    sol = complete_prefix(inst, cut, evals=0, warm=warm)
    assert sol.makespan <= warm.makespan


def test_complete_prefix_not_worse_than_greedy_completion():
    inst = generate_instance(6, 6, seed=10)
    cut, _ = random_prefix(inst, 4, seed=2)
    sol = complete_prefix(inst, cut, evals=600)
    greedy = rollout(inst, RulePolicy("mtwr"), env=cut.copy()).solution
    assert sol.makespan <= greedy.makespan


@pytest.mark.filterwarnings("ignore:job .* visits machine")
def test_jobs_that_revisit_a_machine():
    """Where a job's two operations sit next to each other on a machine, a
    machine arc runs beside a job arc: the screen rejects swapping the pair
    and ``_Timing.swap`` refuses it, changing nothing. ``improve``,
    ``complete_prefix`` and ``solve_exact`` give valid schedules, none worse
    than its start."""
    rng = np.random.default_rng(67)
    beside = critical_beside = certified = 0
    for trial in range(300):
        jobs, machines = int(rng.integers(2, 7)), int(rng.integers(1, 5))
        ops = tuple(
            tuple(Operation(int(rng.integers(machines)), int(rng.integers(1, 10)))
                  for _ in range(int(rng.integers(1, 7))))
            for _ in range(jobs)
        )
        inst = Instance(f"revisit-{trial}", jobs, machines, ops)
        base = greedy_rollout(inst, RulePolicy(("fifo", "spt", "mtwr")[trial % 3]))
        index = OperationIndex.of(inst)
        timing = expert._Timing(index, machine_sequences(inst, base))
        makespan = timing.makespan()
        critical = timing.critical(makespan)
        for m, seq in enumerate(timing.seqs):
            for i in range(len(seq) - 1):
                if index.job_next[seq[i]] == seq[i + 1]:
                    if seq[i] in critical:  # a candidate the screen must reject
                        assert timing.swap_bound(m, i) > makespan
                        critical_beside += 1
                    before = timing_state(timing)
                    assert not timing.swap(m, i) and timing_state(timing) == before
                    beside += 1
        found = improve(inst, base, evals=300, seed=trial)
        assert validate(inst, found) and found.makespan <= base.makespan
        cut, _ = random_prefix(inst, int(rng.integers(inst.total_operations + 1)), trial)
        greedy = rollout(inst, RulePolicy("mtwr"), env=cut.copy()).solution
        done = complete_prefix(inst, cut, evals=300, seed=trial)
        assert validate(inst, done) and done.makespan <= greedy.makespan
        exact = solve_exact(inst, node_limit=20_000)
        assert validate(inst, exact.solution)
        if exact.certified:
            assert exact.solution.makespan <= found.makespan
            certified += 1
    assert beside >= 1000 and critical_beside >= 800 and certified >= 280
