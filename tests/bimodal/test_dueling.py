"""Set-dueling controller tests."""

import pytest

from repro.bimodal.dueling import SetDuelingController
from repro.bimodal.sets import allowed_states
from repro.bimodal.cache import BiModalCache, BiModalConfig
from repro.common.config import DRAMCacheGeometry, DRAMGeometry, DRAMTimingConfig
from repro.dram.device import DRAMDevice

STATES = allowed_states(2048, 512)


def make(interval=100, spacing=4):
    return SetDuelingController(STATES, interval=interval, leader_spacing=spacing)


class TestLeaderAssignment:
    def test_leaders_cover_all_states(self):
        ctrl = make(spacing=4)
        ranks = {ctrl.leader_rank(s) for s in range(48)}
        assert ranks >= {0, 1, 2}

    def test_leader_pattern(self):
        ctrl = make(spacing=4)
        assert ctrl.leader_rank(0) == 0
        assert ctrl.leader_rank(4) == 1
        assert ctrl.leader_rank(8) == 2
        assert ctrl.leader_rank(1) is None
        assert ctrl.leader_rank(12) == 0  # next period

    def test_follower_majority(self):
        ctrl = make(spacing=16)
        leaders = sum(1 for s in range(4096) if ctrl.leader_rank(s) is not None)
        assert leaders == 4096 // 16


class TestElection:
    def _feed(self, ctrl, miss_rates):
        """Feed one interval of leader observations, then end it."""
        for rank, rate in enumerate(miss_rates):
            leader_set = rank * ctrl.leader_spacing
            for i in range(100):
                ctrl.observe_leader(leader_set, miss=(i < rate * 100))
        ctrl.end_interval()

    def test_elects_lowest_miss_rate(self):
        ctrl = make()
        self._feed(ctrl, [0.5, 0.2, 0.4])
        assert ctrl.rank == 1

    def test_stays_without_evidence(self):
        ctrl = make()
        ctrl.end_interval()
        assert ctrl.rank == 0
        assert ctrl.updates == 1
        assert ctrl.transitions == 0

    def test_insufficient_samples_ignored(self):
        ctrl = make()
        # only 3 observations on the winner: below the evidence floor
        ctrl.observe_leader(1 * ctrl.leader_spacing, miss=False)
        ctrl.observe_leader(1 * ctrl.leader_spacing, miss=False)
        ctrl.observe_leader(1 * ctrl.leader_spacing, miss=False)
        ctrl.end_interval()
        assert ctrl.rank == 0

    def test_counters_reset_per_interval(self):
        ctrl = make()
        self._feed(ctrl, [0.1, 0.9, 0.9])
        assert ctrl.rank == 0
        # a new interval with opposite evidence flips the election
        self._feed(ctrl, [0.9, 0.9, 0.1])
        assert ctrl.rank == 2

    def test_force_state(self):
        ctrl = make()
        ctrl.force_state(2)
        assert ctrl.state == (2, 16)
        with pytest.raises(ValueError):
            ctrl.force_state(9)

    def test_validation(self):
        with pytest.raises(ValueError):
            SetDuelingController((), interval=10)
        with pytest.raises(ValueError):
            SetDuelingController(STATES, interval=0)


class TestCacheIntegration:
    def _make_cache(self, controller):
        geometry = DRAMCacheGeometry(
            capacity=1 << 19,
            geometry=DRAMGeometry(channels=2, banks_per_channel=8, page_size=2048),
        )
        offchip = DRAMDevice(
            DRAMGeometry(channels=1, banks_per_channel=16, page_size=2048),
            DRAMTimingConfig.ddr3_1600h(),
        )
        return BiModalCache(
            geometry,
            offchip,
            BiModalConfig(
                locator_index_bits=7,
                predictor_index_bits=8,
                tracker_sample_every=1,
                adaptation_interval=800,
                controller=controller,
                address_bits=36,
            ),
        )

    def test_dueling_controller_selected(self):
        cache = self._make_cache("dueling")
        assert isinstance(cache.global_ctrl, SetDuelingController)

    def test_unknown_controller_rejected(self):
        with pytest.raises(ValueError):
            self._make_cache("oracle")

    def test_dueling_cache_runs_and_adapts(self):
        cache = self._make_cache("dueling")
        t = 0
        # sparse single-sub-block stream: small-heavy states win
        for i in range(6000):
            r = cache.access((i * 512) % (1 << 22), t)
            t = r.complete + 5
        assert cache.global_ctrl.updates > 0
        # leader sets hold their pinned states regardless of election
        leader_counts = {0: 0, 1: 0, 2: 0}
        for set_index, entry in cache._sets.items():
            rank = cache.global_ctrl.leader_rank(set_index)
            if rank is not None and entry.state_rank() == rank:
                leader_counts[rank] += 1
        assert all(count > 0 for count in leader_counts.values())

    def test_demand_controller_unaffected(self):
        cache = self._make_cache("demand")
        t = 0
        for i in range(500):
            r = cache.access((i * 512) % (1 << 20), t)
            t = r.complete + 5
        assert cache.hit_stat.total == 500
