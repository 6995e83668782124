from __future__ import annotations

import math
import random

import pytest

import golden
import independent_oracle as oracle_script
import randgen
from chainplan import (
    Placement,
    ServiceChain,
    VnfSpec,
    max_chain_throughput,
    utilization,
)
from chainplan.resources import (
    below_one,
    chain_sum,
    demand_ratios,
    device_sums,
    fits,
    hosted,
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


def reference_rounding_band(nic, cpu) -> float:
    """`rounding_band` as a copy, an `all` and a `chain_sum` of the ratios."""
    ratios = [*nic, *cpu]
    if not all(r >= 0.0 for r in ratios):
        return math.inf
    return (len(nic) + 2) * 2.0**-50 * (1.0 + chain_sum(ratios))


def typed_reprs(values) -> list[tuple[type, str]]:
    return [(type(v), repr(v)) for v in values]


class TestDeviceSums:
    """`device_sums` is `chain_sum(hosted(...))` on each device, bit for bit."""

    @staticmethod
    def check(nic, cpu, placements) -> tuple:
        got = device_sums(nic, cpu, placements)
        want = (chain_sum(hosted(nic, placements, S)), chain_sum(hosted(cpu, placements, C)))
        assert typed_reprs(got) == typed_reprs(want)
        return got

    def test_random_and_boundary_chains(self):
        rng = random.Random(29)
        for i in range(600):
            make = randgen.random_scenario if i % 2 else randgen.boundary_scenario
            chain, specs, load = make(rng, max_len=rng.choice((4, 12, 40)))
            for theta in (load, 1.0, -0.0):
                self.check(*demand_ratios(chain, specs, theta), chain.placements)

    def test_a_device_hosting_nothing_stays_int_zero(self):
        rng = random.Random(30)
        chain, specs, load = randgen.random_scenario(rng)
        nic, cpu = demand_ratios(chain, specs, load)
        for device in (S, C):
            sums = self.check(nic, cpu, (device,) * len(chain))
            empty = sums[device is S]
            assert empty == 0 and type(empty) is int
        assert typed_reprs(self.check([], [], ())) == typed_reprs((0, 0))

    def test_negative_zero_load_sums_to_positive_zero(self):
        # int 0 + -0.0 is 0.0: the sum starts from int 0, not from a ratio.
        sums = self.check([-0.0, -0.0], [-0.0, -0.0], (S, C))
        assert typed_reprs(sums) == typed_reprs((0.0, 0.0))

    def test_infinite_and_nan_ratios(self):
        inf, nan = math.inf, math.nan
        rng = random.Random(31)
        specials = (inf, -inf, nan, 1e308, 0.5, -0.0)
        for _ in range(300):
            n = rng.randint(0, 8)
            nic = [rng.choice(specials) for _ in range(n)]
            cpu = [rng.choice(specials) for _ in range(n)]
            self.check(nic, cpu, [rng.choice((S, C)) for _ in range(n)])

    def test_a_placement_that_is_neither_member_is_skipped(self):
        others = (None, "SmartNIC", "CPU", S.value)
        sums = self.check([0.5, 0.25, 0.125, 2.0, 4.0], [1.0, 2.0, 3.0, 4.0, 5.0], (S, *others))
        assert typed_reprs(sums) == typed_reprs((0.5, 0))


class TestRoundingBand:
    def test_matches_the_reference_on_random_and_boundary_ratios(self):
        rng = random.Random(32)
        for i in range(300):
            make = randgen.random_scenario if i % 2 else randgen.boundary_scenario
            chain, specs, load = make(rng, max_len=rng.choice((4, 12, 40)))
            nic, cpu = demand_ratios(chain, specs, load)
            assert repr(rounding_band(nic, cpu)) == repr(reference_rounding_band(nic, cpu))

    @pytest.mark.parametrize("bad", (math.nan, -1e-300, -math.inf, math.inf), ids=repr)
    def test_a_bad_ratio_anywhere_in_either_list(self, bad):
        base = [0.5, 2.0, 0.25, 1e-3]
        for which in (0, 1):
            for position in (0, 2, len(base) - 1):
                lists = [list(base), [r / 3 for r in base]]
                lists[which][position] = bad
                got, want = rounding_band(*lists), reference_rounding_band(*lists)
                assert repr(got) == repr(want)
                assert got == math.inf

    def test_empty_and_overflowing_lists(self):
        for nic, cpu in (([], []), ([0.5], []), ([], [0.5]), ([1e308] * 3, [1e308])):
            assert repr(rounding_band(nic, cpu)) == repr(reference_rounding_band(nic, cpu))


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
    """A device is a hot spot when its utilization is >= 1."""

    def test_golden_chain_overloaded_at_1_2(self, fig1_chain, fig1_specs):
        assert utilization(fig1_chain, fig1_specs, S, 1.2) >= 1.0

    def test_exactly_one_is_overloaded(self, fig1_specs):
        chain = golden.chain_from_rows([("Firewall", "Firewall", S)])
        assert utilization(chain, fig1_specs, S, 10.0) >= 1.0

    def test_zero_load_is_never_overloaded(self, fig1_chain, fig1_specs):
        assert not utilization(fig1_chain, fig1_specs, S, 0.0) >= 1.0
        assert not utilization(fig1_chain, fig1_specs, C, 0.0) >= 1.0


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
            assert not utilization(chain, specs, S, below) >= 1.0
            assert not utilization(chain, specs, C, below) >= 1.0
            assert any(utilization(chain, specs, d, above) >= 1.0 for d in (S, C))

    def test_is_one_over_each_devices_utilization_at_one_bit_for_bit(self):
        rng = random.Random(15)
        for i in range(400):
            make = randgen.random_scenario if i % 2 else randgen.boundary_scenario
            chain, specs, _ = make(rng, max_len=rng.choice((4, 10, 24)))
            sums = [utilization(chain, specs, device, 1.0) for device in (S, C)]
            want = min([1.0 / u for u in sums if u > 0.0], default=math.inf)
            assert repr(max_chain_throughput(chain, specs)) == repr(want)

    def test_infinite_capacities_impose_no_bound(self):
        specs = {"x": VnfSpec("x", math.inf, math.inf)}
        for placements in ((S, C), (S, S), (C, C)):
            chain = golden.chain_from_rows([(f"v{i}", "x", p) for i, p in enumerate(placements)])
            assert max_chain_throughput(chain, specs) == math.inf
