from __future__ import annotations

import dataclasses
import math

import pytest

import golden
from chainplan import (
    Placement,
    Scenario,
    ServiceChain,
    VnfSpec,
    builtin_table1,
    validate,
)


class TestPlacement:
    def test_exactly_two_values(self):
        assert {p.value for p in Placement} == {"SmartNIC", "CPU"}


class TestBuiltinProfile:
    def test_capacities(self):
        specs = builtin_table1()
        assert specs["Firewall"].cap_smartnic == 10.0
        assert specs["Firewall"].cap_cpu == 4.0
        assert specs["Logger"].cap_smartnic == 2.0
        assert specs["Logger"].cap_cpu == 4.0
        assert specs["Monitor"].cap_smartnic == 3.2
        assert specs["Monitor"].cap_cpu == 10.0
        assert specs["LoadBalancer"].cap_cpu == 4.0

    def test_load_balancer_stand_in_exceeds_ten(self):
        assert builtin_table1()["LoadBalancer"].cap_smartnic > 10.0

    def test_latencies_default_to_zero(self):
        for spec in builtin_table1().values():
            assert spec.proc_latency_smartnic == 0.0
            assert spec.proc_latency_cpu == 0.0


class TestServiceChain:
    def test_placement_sequence_brackets_with_anchors(self, fig1_chain):
        seq = fig1_chain.placement_sequence()
        assert seq[0] is Placement.SMARTNIC
        assert seq[-1] is Placement.SMARTNIC
        assert len(seq) == len(fig1_chain) + 2

    def test_with_placement_returns_new_chain(self, fig1_chain):
        moved = fig1_chain.with_placement(1, Placement.CPU)
        assert moved.placements[1] is Placement.CPU
        assert fig1_chain.placements[1] is Placement.SMARTNIC
        assert moved.placements[0] == fig1_chain.placements[0]
        assert moved.placements[2:] == fig1_chain.placements[2:]
        assert moved.ids == fig1_chain.ids
        assert moved.spec_names == fig1_chain.spec_names
        assert (moved.ingress_anchor, moved.egress_anchor) == (
            fig1_chain.ingress_anchor, fig1_chain.egress_anchor
        )

    @pytest.mark.parametrize(
        "ids, spec_names, placements",
        [
            (("a", "b"), ("Logger",), (Placement.CPU, Placement.CPU)),
            (("a",), ("Logger", "Logger"), (Placement.CPU,)),
            (("a",), ("Logger",), ()),
            ((), (), (Placement.CPU,)),
        ],
    )
    def test_columns_of_unequal_length_raise(self, ids, spec_names, placements):
        with pytest.raises(ValueError, match="chain columns differ in length"):
            ServiceChain(ids, spec_names, placements)

    def test_types_are_frozen(self, fig1_chain):
        with pytest.raises(dataclasses.FrozenInstanceError):
            fig1_chain.placements = (Placement.SMARTNIC,) * len(fig1_chain)  # type: ignore[misc]
        with pytest.raises(dataclasses.FrozenInstanceError):
            golden.golden_specs()["Logger"].cap_cpu = 1.0  # type: ignore[misc]


class TestValidate:
    def test_golden_scenario_passes(self, fig1_scenario):
        report = validate(fig1_scenario)
        assert report.ok
        assert report.violations == ()

    def test_empty_chain(self):
        scenario = Scenario(ServiceChain((), (), ()), golden.golden_specs(), 1.0)
        report = validate(scenario)
        assert not report.ok
        assert "empty_chain" in [v.code for v in report.violations]

    def test_non_positive_capacity(self):
        specs = golden.golden_specs()
        specs["Logger"] = VnfSpec("Logger", cap_smartnic=0.0, cap_cpu=4.0)
        report = validate(golden.golden_scenario(specs=specs))
        assert [v.code for v in report.violations] == ["non_positive_capacity"]
        assert "cap_smartnic" in report.violations[0].where

    def test_unresolved_spec_reference(self):
        chain = golden.chain_from_rows([("x", "Mystery", Placement.CPU)])
        report = validate(Scenario(chain, golden.golden_specs(), 1.0))
        assert [v.code for v in report.violations] == ["unresolved_spec_reference"]

    def test_negative_latency(self):
        specs = golden.golden_specs()
        specs["Monitor"] = dataclasses.replace(specs["Monitor"], proc_latency_cpu=-1.0)
        report = validate(golden.golden_scenario(specs=specs))
        assert [v.code for v in report.violations] == ["negative_latency"]

    def test_duplicate_vnf_id(self):
        chain = golden.chain_from_rows(
            [("a", "Logger", Placement.CPU), ("a", "Monitor", Placement.CPU)]
        )
        report = validate(Scenario(chain, golden.golden_specs(), 1.0))
        assert "duplicate_vnf_id" in [v.code for v in report.violations]

    def test_negative_load(self):
        report = validate(golden.golden_scenario(theta=-0.5))
        assert [v.code for v in report.violations] == ["negative_load"]

    def test_negative_pcie_latency(self):
        report = validate(golden.golden_scenario(pcie=-1.0))
        assert [v.code for v in report.violations] == ["negative_pcie_latency"]

    def test_non_finite_pcie_latency(self):
        for pcie in (math.nan, math.inf):
            report = validate(golden.golden_scenario(pcie=pcie))
            assert [v.code for v in report.violations] == ["non_finite_pcie_latency"]
            assert report.violations[0].where == "pcie_latency_us"
        report = validate(golden.golden_scenario(pcie=-math.inf))
        assert [v.code for v in report.violations] == ["negative_pcie_latency"]

    @pytest.mark.parametrize("field", ["cap_smartnic", "cap_cpu"])
    def test_nan_capacity_is_non_positive(self, field):
        specs = golden.golden_specs()
        specs["Logger"] = dataclasses.replace(specs["Logger"], **{field: math.nan})
        report = validate(golden.golden_scenario(specs=specs))
        assert [v.code for v in report.violations] == ["non_positive_capacity"]
        assert report.violations[0].where == f"specs[Logger].{field}"

    @pytest.mark.parametrize("field", ["proc_latency_smartnic", "proc_latency_cpu"])
    def test_nan_latency_is_negative(self, field):
        specs = golden.golden_specs()
        specs["Monitor"] = dataclasses.replace(specs["Monitor"], **{field: math.nan})
        report = validate(golden.golden_scenario(specs=specs))
        assert [v.code for v in report.violations] == ["negative_latency"]
        assert report.violations[0].where == f"specs[Monitor].{field}"

    def test_nan_load_is_negative(self):
        report = validate(golden.golden_scenario(theta=math.nan))
        assert [v.code for v in report.violations] == ["negative_load"]

    def test_violations_name_the_offending_field(self):
        specs = golden.golden_specs()
        specs["C2"] = VnfSpec("C2", cap_smartnic=15.0, cap_cpu=-2.0)
        report = validate(golden.golden_scenario(specs=specs))
        assert report.violations[0].where == "specs[C2].cap_cpu"
