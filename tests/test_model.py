from __future__ import annotations

import copy
import math
import pickle

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
        with pytest.raises(AttributeError):
            fig1_chain.placements = (Placement.SMARTNIC,) * len(fig1_chain)  # type: ignore[misc]
        with pytest.raises(AttributeError):
            golden.golden_specs()["Logger"].cap_cpu = 1.0  # type: ignore[misc]



LOGGER_REPR = (
    "VnfSpec(name='Logger', cap_smartnic=2.0, cap_cpu=4.0, proc_latency_smartnic=0.0, proc_latency_cpu=0.0)"
)
FIG1_CHAIN_REPR = (
    "ServiceChain(ids=('LB', 'Logger', 'Monitor', 'Firewall', 'C2'), "
    "spec_names=('LoadBalancer', 'Logger', 'Monitor', 'Firewall', 'C2'), "
    "placements=(<Placement.CPU: 'CPU'>, <Placement.SMARTNIC: 'SmartNIC'>, "
    "<Placement.SMARTNIC: 'SmartNIC'>, <Placement.SMARTNIC: 'SmartNIC'>, <Placement.CPU: 'CPU'>), "
    "ingress_anchor=<Placement.SMARTNIC: 'SmartNIC'>, egress_anchor=<Placement.SMARTNIC: 'SmartNIC'>)"
)
FIG1_SPECS_REPR = (
    "{'Firewall': VnfSpec(name='Firewall', cap_smartnic=10.0, cap_cpu=4.0, "
    "proc_latency_smartnic=0.0, proc_latency_cpu=0.0), "
    f"'Logger': {LOGGER_REPR}, "
    "'Monitor': VnfSpec(name='Monitor', cap_smartnic=3.2, cap_cpu=10.0, "
    "proc_latency_smartnic=0.0, proc_latency_cpu=0.0), "
    "'LoadBalancer': VnfSpec(name='LoadBalancer', cap_smartnic=15.0, cap_cpu=4.0, "
    "proc_latency_smartnic=0.0, proc_latency_cpu=0.0), "
    "'C2': VnfSpec(name='C2', cap_smartnic=15.0, cap_cpu=4.0, "
    "proc_latency_smartnic=0.0, proc_latency_cpu=0.0)}"
)


class TestRecordContract:
    """VnfSpec, ServiceChain and Scenario are immutable value records: they
    print, compare, hash, copy and pickle as the frozen dataclasses they
    replaced did, and they are not tuples."""

    @pytest.fixture
    def records(self, fig1_scenario):
        return (fig1_scenario.specs["Logger"], fig1_scenario.chain, fig1_scenario)

    def test_repr_is_pinned(self, fig1_scenario):
        assert repr(builtin_table1()["Logger"]) == LOGGER_REPR
        assert repr(fig1_scenario.chain) == FIG1_CHAIN_REPR
        assert repr(fig1_scenario) == (
            f"Scenario(chain={FIG1_CHAIN_REPR}, specs={FIG1_SPECS_REPR}, theta_cur=1.2, pcie_latency_us=10.0)"
        )

    def test_equal_records_are_equal_and_hash_equal(self):
        assert golden.golden_chain() == golden.golden_chain()
        assert hash(golden.golden_chain()) == hash(golden.golden_chain())
        assert builtin_table1()["Logger"] == builtin_table1()["Logger"]
        assert hash(builtin_table1()["Logger"]) == hash(builtin_table1()["Logger"])
        assert golden.golden_scenario() == golden.golden_scenario()
        assert golden.golden_scenario() != golden.golden_scenario(theta=1.3)
        assert golden.golden_chain() != golden.chain_of("SSSSS")
        assert builtin_table1()["Logger"] != builtin_table1()["Monitor"]

    def test_a_record_is_not_a_tuple(self, records):
        spec, chain, scenario = records
        assert not isinstance(chain, tuple)
        assert spec != ("Logger", 2.0, 4.0, 0.0, 0.0)
        assert chain != (chain.ids, chain.spec_names, chain.placements, chain.ingress_anchor, chain.egress_anchor)
        assert scenario != (scenario.chain, scenario.specs, scenario.theta_cur, scenario.pcie_latency_us)
        with pytest.raises(TypeError):
            iter(spec)

    def test_records_of_other_types_are_unequal(self):
        class Other(VnfSpec):
            __slots__ = ()

        spec = builtin_table1()["Logger"]
        other = Other(spec.name, spec.cap_smartnic, spec.cap_cpu)
        assert spec != other and other != spec
        assert spec.__eq__(other) is NotImplemented
        assert spec.__eq__(golden.golden_chain()) is NotImplemented

    def test_fields_cannot_be_assigned_or_deleted(self, records):
        for record in records:
            with pytest.raises(AttributeError):
                record.extra = 1  # type: ignore[attr-defined]
            for field in record._fields:
                with pytest.raises(AttributeError):
                    setattr(record, field, getattr(record, field))
                with pytest.raises(AttributeError):
                    delattr(record, field)
            assert not hasattr(record, "__dict__")

    def test_replace_copies_with_a_change(self, records):
        spec, chain, scenario = records
        assert spec._replace(cap_cpu=1.0) == VnfSpec("Logger", 2.0, 1.0)
        assert spec._replace() == spec
        assert scenario._replace(theta_cur=1.3) == golden.golden_scenario(theta=1.3)
        on_nic = (Placement.SMARTNIC,) * len(chain)
        assert chain._replace(placements=on_nic) == ServiceChain(chain.ids, chain.spec_names, on_nic)
        assert chain.placements[0] is Placement.CPU

    def test_replace_rejects_an_unknown_field(self, records):
        for record in records:
            with pytest.raises(TypeError):
                record._replace(nope=1)

    def test_replace_checks_chain_column_lengths(self, fig1_chain):
        with pytest.raises(ValueError, match="chain columns differ in length"):
            fig1_chain._replace(placements=(Placement.CPU,))

    def test_copy_deepcopy_and_pickle_give_equal_records(self, records):
        for record in records:
            for twin in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
                assert type(twin) is type(record)
                assert twin == record
                assert repr(twin) == repr(record)


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
        specs["Monitor"] = specs["Monitor"]._replace(proc_latency_cpu=-1.0)
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
        specs["Logger"] = specs["Logger"]._replace(**{field: math.nan})
        report = validate(golden.golden_scenario(specs=specs))
        assert [v.code for v in report.violations] == ["non_positive_capacity"]
        assert report.violations[0].where == f"specs[Logger].{field}"

    @pytest.mark.parametrize("field", ["proc_latency_smartnic", "proc_latency_cpu"])
    def test_nan_latency_is_negative(self, field):
        specs = golden.golden_specs()
        specs["Monitor"] = specs["Monitor"]._replace(**{field: math.nan})
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
