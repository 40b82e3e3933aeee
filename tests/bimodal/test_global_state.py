"""Global (X_glob, Y_glob) adaptation tests (Section III-B4 rules)."""

import pytest

from repro.bimodal.cache import BiModalCache, BiModalConfig
from repro.bimodal.global_state import GlobalStateController
from repro.bimodal.sets import allowed_states
from repro.common.config import DRAMCacheGeometry, DRAMGeometry, DRAMTimingConfig
from repro.dram.device import DRAMDevice

STATES = allowed_states(2048, 512)


def make(interval=100, weight=0.75):
    return GlobalStateController(STATES, weight=weight, interval=interval)


def run_interval(ctrl, *, big=0, small=0):
    """Feed one interval's worth of demand then trigger adaptation."""
    for _ in range(big):
        ctrl.record_miss(predicted_big=True)
    for _ in range(small):
        ctrl.record_miss(predicted_big=False)
    ctrl.end_interval()


class TestRules:
    def test_initial_state_all_big(self):
        assert make().state == (4, 0)

    def test_small_demand_grows_small(self):
        ctrl = make()
        run_interval(ctrl, big=10, small=10)  # R = 0.75 > 0/4
        assert ctrl.state == (3, 8)

    def test_needs_enough_small_demand_to_reach_2_16(self):
        ctrl = make()
        run_interval(ctrl, big=10, small=10)  # -> (3,8)
        # R must exceed 8/3 = 2.67: W * small/big > 2.67 -> small > 3.56*big
        run_interval(ctrl, big=10, small=20)  # R = 1.5 < 2.67: stay
        assert ctrl.state == (3, 8)
        run_interval(ctrl, big=10, small=60)  # R = 4.5 > 2.67: grow small
        assert ctrl.state == (2, 16)

    def test_cannot_grow_past_2_16(self):
        ctrl = make()
        run_interval(ctrl, big=1, small=1000)
        run_interval(ctrl, big=1, small=1000)
        run_interval(ctrl, big=1, small=1000)
        assert ctrl.state == (2, 16)

    def test_zero_small_demand_steps_back_toward_all_big(self):
        ctrl = make()
        run_interval(ctrl, big=10, small=10)
        assert ctrl.state == (3, 8)
        run_interval(ctrl, big=50, small=0)
        assert ctrl.state == (4, 0)

    def test_big_demand_shrinks_small_quota(self):
        ctrl = make()
        run_interval(ctrl, big=10, small=100)
        run_interval(ctrl, big=10, small=100)
        assert ctrl.state == (2, 16)
        # R < (16-8)/(2+1) = 2.67 with R = 0.75*10/100 = 0.075
        run_interval(ctrl, big=100, small=10)
        assert ctrl.state == (3, 8)

    def test_no_demand_no_change(self):
        ctrl = make()
        run_interval(ctrl)
        assert ctrl.state == (4, 0)
        assert ctrl.updates == 1
        assert ctrl.transitions == 0

    def test_weight_damps_small_preference(self):
        eager = GlobalStateController(STATES, weight=2.0, interval=100)
        damped = GlobalStateController(STATES, weight=0.1, interval=100)
        for ctrl in (eager, damped):
            run_interval(ctrl, big=50, small=20)
        assert eager.state == (3, 8)
        assert damped.state == (3, 8)  # any positive R > 0 moves off (4,0)
        # second interval differentiates: R_eager = 2*20/50 = 0.8 < 2.67
        run_interval(eager, big=50, small=120)  # R = 4.8 -> (2,16)
        run_interval(damped, big=50, small=120)  # R = 0.24 -> stays
        assert eager.state == (2, 16)
        assert damped.state == (3, 8)


class TestBookkeeping:
    def test_demand_counters_reset_each_interval(self):
        ctrl = make()
        run_interval(ctrl, big=5, small=3)
        assert ctrl.demand_big == 0
        assert ctrl.demand_small == 0

    def test_interval_cadence(self):
        """The cache ends an interval every ``interval`` accesses."""
        geometry = DRAMCacheGeometry(
            capacity=1 << 19,
            geometry=DRAMGeometry(channels=2, banks_per_channel=8, page_size=2048),
        )
        offchip = DRAMDevice(
            DRAMGeometry(channels=1, banks_per_channel=16, page_size=2048),
            DRAMTimingConfig.ddr3_1600h(),
        )
        cache = BiModalCache(
            geometry, offchip, BiModalConfig(adaptation_interval=10, address_bits=36)
        )
        t = 0
        for i in range(35):
            t = cache.access_fast(i * 64, t)
        assert cache.global_ctrl.updates == 3

    def test_force_state(self):
        ctrl = make()
        ctrl.force_state(2)
        assert ctrl.state == (2, 16)
        with pytest.raises(ValueError):
            ctrl.force_state(5)

    def test_validation(self):
        with pytest.raises(ValueError):
            GlobalStateController((), interval=10)
        with pytest.raises(ValueError):
            GlobalStateController(STATES, weight=0)
        with pytest.raises(ValueError):
            GlobalStateController(STATES, interval=0)
