"""Unit tests for task groups and the Table 2 statistics."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime.errors import GroupError, RatioError
from repro.runtime.groups import GLOBAL_GROUP, GroupRecord, GroupRegistry
from repro.runtime.task import ExecutionKind, Task


def record(group: GroupRecord, sig: float, kind: ExecutionKind):
    t = Task(fn=lambda: None, significance=sig)
    t.decision = kind
    group.spawned += 1
    group.record(t)


A, X, D = (
    ExecutionKind.ACCURATE,
    ExecutionKind.APPROXIMATE,
    ExecutionKind.DROPPED,
)


class TestGroupRecord:
    def test_ratio_validation(self):
        g = GroupRecord("g")
        with pytest.raises(RatioError):
            g.set_ratio(1.2)
        with pytest.raises(RatioError):
            g.set_ratio(-0.1)
        g.set_ratio(0.35)
        assert g.ratio == 0.35

    def test_outstanding_counts(self):
        g = GroupRecord("g")
        g.spawned = 3
        assert g.outstanding == 3
        record(g, 0.5, A)
        # record() bumps spawned too in this helper; compensate:
        g.spawned -= 1
        assert g.outstanding == 2

    def test_counts_by_kind(self):
        g = GroupRecord("g")
        for kind in (A, A, X, D):
            record(g, 0.5, kind)
        assert g.accurate_count == 2
        assert g.approx_count == 1
        assert g.dropped_count == 1

    def test_achieved_ratio(self):
        g = GroupRecord("g")
        for kind in (A, A, X, X):
            record(g, 0.5, kind)
        assert g.achieved_ratio == 0.5

    def test_achieved_ratio_empty_is_one(self):
        assert GroupRecord("g").achieved_ratio == 1.0


class TestRatioOffset:
    def test_exact_match_zero_offset(self):
        g = GroupRecord("g", ratio=0.5)
        for kind in (A, X, A, X):
            record(g, 0.5, kind)
        assert g.ratio_offset() == pytest.approx(0.0)

    def test_offset_magnitude(self):
        g = GroupRecord("g", ratio=1.0)
        for kind in (A, X, X, X):
            record(g, 0.5, kind)
        assert g.ratio_offset() == pytest.approx(0.75)

    def test_per_epoch_requested_ratio(self):
        """Phase-alternating ratios are judged per epoch (Fluidanimate)."""
        g = GroupRecord("g", ratio=1.0)
        for _ in range(4):
            record(g, 0.5, A)
        g.new_epoch()
        g.set_ratio(0.0)
        for _ in range(4):
            record(g, 0.5, X)
        g.new_epoch()
        assert g.ratio_offset() == pytest.approx(0.0)

    def test_override_requested(self):
        g = GroupRecord("g", ratio=1.0)
        for kind in (A, A, X, X):
            record(g, 0.5, kind)
        assert g.ratio_offset(requested=0.5) == pytest.approx(0.0)


class TestInversions:
    def test_no_inversion_when_order_respected(self):
        g = GroupRecord("g")
        record(g, 0.9, A)
        record(g, 0.8, A)
        record(g, 0.2, X)
        record(g, 0.1, X)
        assert g.inversion_count() == 0

    def test_inversion_detected(self):
        g = GroupRecord("g")
        record(g, 0.9, X)  # more significant task approximated ...
        record(g, 0.1, A)  # ... while less significant ran accurately
        assert g.inversion_count() == 1
        assert g.inversion_pct() == pytest.approx(50.0)

    def test_equal_significance_never_inverts(self):
        g = GroupRecord("g")
        record(g, 0.5, X)
        record(g, 0.5, A)
        record(g, 0.5, X)
        assert g.inversion_count() == 0

    def test_dropped_counts_as_approximate(self):
        g = GroupRecord("g")
        record(g, 0.9, D)
        record(g, 0.1, A)
        assert g.inversion_count() == 1

    def test_epochs_isolate_inversions(self):
        """An accurate task in epoch 2 cannot invert epoch 1 decisions."""
        g = GroupRecord("g")
        record(g, 0.9, X)
        g.new_epoch()
        record(g, 0.1, A)
        g.new_epoch()
        assert g.inversion_count() == 0

    def test_all_approx_epoch_no_inversions(self):
        g = GroupRecord("g")
        for s in (0.1, 0.5, 0.9):
            record(g, s, X)
        assert g.inversion_count() == 0


class TestGroupRegistry:
    def test_lazy_creation(self):
        reg = GroupRegistry()
        g = reg.get("a")
        assert g.name == "a" and "a" in reg

    def test_none_maps_to_global(self):
        reg = GroupRegistry()
        assert reg.get(None).name == GLOBAL_GROUP

    def test_get_nocreate_raises(self):
        reg = GroupRegistry()
        with pytest.raises(GroupError):
            reg.get("missing", create=False)

    def test_init_group_sets_ratio(self):
        reg = GroupRegistry()
        g = reg.init_group("g", ratio=0.25)
        assert g.ratio == 0.25

    def test_outstanding_across_groups(self):
        reg = GroupRegistry()
        reg.get("a").spawned = 2
        reg.get("b").spawned = 3
        assert reg.outstanding() == 5
        assert reg.outstanding("a") == 2

    def test_len_and_names(self):
        reg = GroupRegistry()
        reg.get("a")
        reg.get("b")
        assert len(reg) == 2 and set(reg.names()) == {"a", "b"}

    def test_mean_ratio_offset_ignores_empty_groups(self):
        reg = GroupRegistry()
        reg.init_group("empty", ratio=0.5)
        g = reg.init_group("used", ratio=1.0)
        record(g, 0.5, A)
        assert reg.mean_ratio_offset() == pytest.approx(0.0)

    def test_total_inversion_pct_weighted(self):
        reg = GroupRegistry()
        g1 = reg.get("a")
        record(g1, 0.9, X)
        record(g1, 0.1, A)  # 1 inversion over 2 tasks
        g2 = reg.get("b")
        record(g2, 0.5, A)
        record(g2, 0.5, A)  # 0 over 2
        assert reg.total_inversion_pct() == pytest.approx(25.0)


# ----------------------------------------------------------------------
# The tallies against a brute-force recomputation from the raw decisions
# ----------------------------------------------------------------------
class _Log:
    """What the statistics are defined over: every decision, and the
    requested ratio in force at each barrier that closed a non-empty
    epoch."""

    def __init__(self, ratio):
        self.ratio = ratio
        self.decisions = []  # (significance, kind)
        self.marks = []  # (decision count, ratio)

    def epochs(self):
        marks = list(self.marks)
        if not marks or marks[-1][0] != len(self.decisions):
            marks.append((len(self.decisions), self.ratio))
        start, out = 0, []
        for mark, ratio in marks:
            if mark > start:
                out.append((self.decisions[start:mark], ratio))
            start = mark
        return out

    def count(self, kind):
        return sum(1 for _, k in self.decisions if k is kind)

    def ratio_offset(self, requested=None):
        offsets = [
            abs(
                (ratio if requested is None else requested)
                - sum(1 for _, k in sl if k is A) / len(sl)
            )
            for sl, ratio in self.epochs()
        ]
        return sum(offsets) / len(offsets) if offsets else 0.0

    def inversions(self):
        total = 0
        for sl, _ in self.epochs():
            accurate = [sig for sig, k in sl if k is A]
            if accurate:
                total += sum(
                    1 for sig, k in sl if k is not A and sig > min(accurate)
                )
        return total


_significances = st.one_of(
    st.sampled_from([0.0, 0.25, 0.5, 1.0]),
    st.floats(min_value=0.0, max_value=1.0),
)
_ratios = st.sampled_from([0.0, 0.3, 0.5, 1.0])
_ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("record"),
            st.sampled_from("ab"),
            _significances,
            st.sampled_from([A, X, D]),
        ),
        st.tuples(st.just("epoch"), st.sampled_from("ab")),
        st.tuples(st.just("ratio"), st.sampled_from("ab"), _ratios),
    ),
    max_size=80,
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_ops, _ratios)
def test_tallies_equal_brute_force(ops, requested):
    reg = GroupRegistry()
    logs = {name: _Log(reg.get(name).ratio) for name in "ab"}
    for op, name, *arg in ops:
        group, log = reg.get(name), logs[name]
        if op == "record":
            sig, kind = arg
            record(group, sig, kind)
            log.decisions.append((sig, kind))
        elif op == "epoch":
            group.new_epoch()
            if len(log.decisions) > (log.marks[-1][0] if log.marks else 0):
                log.marks.append((len(log.decisions), log.ratio))
        else:
            group.set_ratio(arg[0])
            log.ratio = arg[0]

    for name, log in logs.items():
        g = reg.get(name)
        n = len(log.decisions)
        assert g.completed == n
        assert g.accurate_count == log.count(A)
        assert g.approx_count == log.count(X)
        assert g.dropped_count == log.count(D)
        assert g.achieved_ratio == (log.count(A) / n if n else 1.0)
        assert g.epoch == len(log.marks)
        assert [(t.tasks, t.ratio) for t in g.epoch_tallies()] == [
            (len(sl), ratio) for sl, ratio in log.epochs()
        ]
        assert g.ratio_offset() == log.ratio_offset()
        assert g.ratio_offset(requested=requested) == log.ratio_offset(
            requested
        )
        assert g.inversion_count() == log.inversions()
        assert g.inversion_pct() == (
            100.0 * log.inversions() / n if n else 0.0
        )

    used = [log for log in logs.values() if log.decisions]
    assert reg.mean_ratio_offset() == (
        sum(log.ratio_offset() for log in used) / len(used) if used else 0.0
    )
    total = sum(len(log.decisions) for log in logs.values())
    inversions = sum(log.inversions() for log in logs.values())
    assert reg.total_inversion_pct() == (
        100.0 * inversions / total if total else 0.0
    )
