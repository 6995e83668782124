from __future__ import annotations

import math
import random
from dataclasses import replace

import pytest

import golden
import independent_oracle as oracle_script
import randgen
from chainplan import (
    Placement,
    ServiceChain,
    VnfSpec,
    is_overloaded,
    max_chain_throughput,
    utilization,
)
from chainplan.resources import (
    below_one,
    chain_sum,
    demand_ratios,
    device_utilizations,
    fits,
    rounding_band,
)

S = Placement.SMARTNIC
C = Placement.CPU


class TestUtilization:
    def test_golden_chain_smartnic_at_1_2(self, fig1_chain, fig1_specs):
        util = utilization(fig1_chain, fig1_specs, S, 1.2)
        expected = 1.2 / 2 + 1.2 / 3.2 + 1.2 / 10
        assert util == pytest.approx(1.095, abs=1e-12)
        assert util == expected
        assert util == oracle_script.golden_smartnic_utilization(1.2)

    def test_device_without_vnfs_is_zero(self, fig1_specs):
        chain = golden.chain_from_rows([("Logger", "Logger", C)])
        assert utilization(chain, fig1_specs, S, 3.0) == 0.0

    def test_single_vnf_at_capacity_is_exactly_one(self, fig1_specs):
        chain = golden.chain_from_rows([("Firewall", "Firewall", S)])
        assert utilization(chain, fig1_specs, S, 10.0) == 1.0

    def test_linearity_in_load(self):
        rng = random.Random(7)
        for _ in range(50):
            chain, specs, load = randgen.random_scenario(rng)
            k = rng.uniform(0.0, 5.0)
            for device in (S, C):
                base = utilization(chain, specs, device, load)
                scaled = utilization(chain, specs, device, k * load)
                assert scaled == pytest.approx(k * base, abs=1e-12, rel=1e-12)

    def test_adding_a_vnf_never_decreases_utilization(self):
        rng = random.Random(8)
        for _ in range(50):
            chain, specs, load = randgen.random_scenario(rng)
            specs["extra"] = VnfSpec("extra", cap_smartnic=randgen.log_uniform(rng),
                                     cap_cpu=randgen.log_uniform(rng))
            bigger = ServiceChain(
                chain.ids + ("extra",),
                chain.spec_names + ("extra",),
                chain.placements + (S,),
                chain.ingress_anchor,
                chain.egress_anchor,
            )
            before = utilization(chain, specs, S, load)
            after = utilization(bigger, specs, S, load)
            assert after >= before


class TestDeviceUtilizations:
    """Both devices in one walk, with the bits (and type) of `utilization`."""

    @staticmethod
    def check(chain, specs, theta):
        got = device_utilizations(chain, specs, theta)
        want = tuple(utilization(chain, specs, device, theta) for device in (S, C))
        assert [(type(u), repr(u)) for u in got] == [(type(u), repr(u)) for u in want]
        return got

    def test_random_chains(self):
        rng = random.Random(12)
        for _ in range(500):
            self.check(*randgen.random_scenario(rng, max_len=40))

    def test_device_hosting_nothing_is_int_zero(self):
        rng = random.Random(13)
        for device in (S, C):
            chain, specs, theta = randgen.random_scenario(rng)
            chain = replace(chain, placements=(device,) * len(chain))
            nic, cpu = self.check(chain, specs, theta)
            assert (cpu if device is S else nic) == 0

    def test_overflowing_ratio(self):
        rng = random.Random(14)
        for _ in range(50):
            chain, specs, theta = randgen.random_scenario(rng)
            name = rng.choice(list(specs))
            specs[name] = replace(specs[name], cap_smartnic=5e-324, cap_cpu=5e-324)
            nic, cpu = self.check(chain, specs, theta)
            assert math.inf in (nic, cpu)


class TestSummationOrder:
    def test_chain_sum_adds_left_to_right(self):
        # The two orders round to different sides of 1.0; builtin `sum`
        # compensates from Python 3.12 on and gives neither on every version.
        assert chain_sum([0.1, 0.2, 0.7]) == (0.1 + 0.2) + 0.7 == 1.0
        assert chain_sum([0.7, 0.2, 0.1]) == (0.7 + 0.2) + 0.1 < 1.0

    def test_chain_sum_starts_from_int_zero(self):
        assert chain_sum([]) == 0 and type(chain_sum([])) is int
        assert chain_sum(iter([1, 2, 3])) == 6 and type(chain_sum([1, 2, 3])) is int

    def test_utilization_is_the_chain_sum_of_demand_ratios(self):
        rng = random.Random(11)
        for _ in range(50):
            chain, specs, load = randgen.random_scenario(rng)
            nic, cpu = demand_ratios(chain, specs, load)
            for device, ratios in ((S, nic), (C, cpu)):
                hosted = [r for r, p in zip(ratios, chain.placements) if p is device]
                assert utilization(chain, specs, device, load) == chain_sum(hosted)

    def test_rounding_band_is_infinite_without_a_bound(self):
        assert 0.0 < rounding_band([0.5, 2.0], [0.25, 0.1]) < 1e-12
        assert rounding_band([0.5, -0.1], [0.25, 0.1]) == float("inf")
        assert rounding_band([0.5, 2.0], [float("nan"), 0.1]) == float("inf")

    def test_below_one_asks_the_chain_order_test_only_inside_the_band(self):
        def fail() -> list[float]:
            raise AssertionError("decided outside the band")

        tol = 1e-12
        assert below_one(1.0 - 2 * tol, tol, fail)
        assert not below_one(1.0 + 2 * tol, tol, fail)
        # Inside the band (or for NaN) `fits` on the hosted ratios decides.
        assert below_one(1.0, tol, lambda: [0.7, 0.2, 0.1])
        assert not below_one(1.0 - 2 * tol, tol * 4, lambda: [0.1, 0.2, 0.7])
        assert not below_one(1.0 - 2 * tol, float("inf"), lambda: [1.0])
        assert below_one(float("nan"), tol, lambda: [0.5])
        assert not below_one(float("nan"), tol, lambda: [float("nan")])


class TestFits:
    def test_chain_order_decides(self):
        # (0.1 + 0.2) + 0.7 rounds to 1.0; (0.7 + 0.2) + 0.1 stays below it.
        assert not fits([0.1, 0.2, 0.7])
        assert fits([0.7, 0.2, 0.1])
        for ratios in ([0.1, 0.2, 0.7], [0.7, 0.2, 0.1]):
            assert fits(ratios) == (chain_sum(ratios) < 1.0)

    def test_an_empty_device_fits(self):
        assert fits([])

    def test_an_overflowing_sum_does_not_fit(self):
        assert not fits([1e308, 1e308, 0.5])
        assert not fits(iter([float("inf")]))


class TestIsOverloaded:
    def test_golden_chain_overloaded_at_1_2(self, fig1_chain, fig1_specs):
        assert is_overloaded(fig1_chain, fig1_specs, S, 1.2)

    def test_exactly_one_is_overloaded(self, fig1_specs):
        chain = golden.chain_from_rows([("Firewall", "Firewall", S)])
        assert is_overloaded(chain, fig1_specs, S, 10.0)

    def test_zero_load_is_never_overloaded(self, fig1_chain, fig1_specs):
        assert not is_overloaded(fig1_chain, fig1_specs, S, 0.0)
        assert not is_overloaded(fig1_chain, fig1_specs, C, 0.0)


class TestMaxChainThroughput:
    def test_monitor_bottleneck_post_plan_values(self):
        specs = golden.monitor_bottleneck_specs()
        post_pam = golden.chain_from_rows(
            [
                ("LB", "LoadBalancer", C),
                ("Logger", "Logger", C),
                ("Monitor", "Monitor", S),
                ("Firewall", "Firewall", S),
                ("C2", "C2", C),
            ]
        )
        expected = min(1 / (1 / 1.8 + 1 / 10), 1 / (3 / 4))
        got = max_chain_throughput(post_pam, specs)
        assert got == pytest.approx(expected, abs=1e-12)
        assert got == pytest.approx(4 / 3, abs=1e-9)
        assert got == pytest.approx(
            oracle_script.bottleneck_scenario_throughputs()[0], abs=1e-9
        )

    def test_single_vnf_bound_is_its_capacity(self, fig1_specs):
        chain = golden.chain_from_rows([("Monitor", "Monitor", S)])
        assert max_chain_throughput(chain, fig1_specs) == 3.2

    def test_two_cpu_vnfs_at_four(self, fig1_specs):
        chain = golden.chain_from_rows([("a", "Logger", C), ("b", "Firewall", C)])
        assert max_chain_throughput(chain, fig1_specs) == pytest.approx(2.0, abs=1e-12)

    def test_matches_bisection_oracle(self):
        rng = random.Random(9)
        for _ in range(50):
            chain, specs, _ = randgen.random_scenario(rng)
            s_caps = [specs[n].cap_smartnic for n, p in zip(chain.spec_names, chain.placements) if p is S]
            c_caps = [specs[n].cap_cpu for n, p in zip(chain.spec_names, chain.placements) if p is C]
            expected = oracle_script.bisect_max_throughput(s_caps, c_caps, hi=32.0)
            assert max_chain_throughput(chain, specs) == pytest.approx(expected, abs=1e-6)

    def test_brackets_the_overload_boundary(self):
        rng = random.Random(10)
        for _ in range(100):
            chain, specs, _ = randgen.random_scenario(rng)
            t = max_chain_throughput(chain, specs)
            below = t * (1 - 1e-9)
            above = t * (1 + 1e-9)
            assert not is_overloaded(chain, specs, S, below)
            assert not is_overloaded(chain, specs, C, below)
            assert is_overloaded(chain, specs, S, above) or is_overloaded(
                chain, specs, C, above
            )
