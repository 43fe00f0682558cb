"""Unit tests for the component registry (spec parsing + resolution)."""

import pytest

from repro.registry import (
    Registry,
    available,
    format_spec,
    parse_spec,
    registry_for,
    resolve,
)
from repro.runtime.errors import RegistryError
from repro.runtime.policies import (
    GlobalTaskBuffering,
    LocalQueueHistory,
    SignificanceAgnostic,
)


class TestParseSpec:
    def test_bare_name(self):
        assert parse_spec("gtb") == ("gtb", {})

    def test_single_kwarg(self):
        assert parse_spec("gtb:buffer_size=16") == (
            "gtb",
            {"buffer_size": 16},
        )

    def test_multiple_kwargs_and_types(self):
        name, kw = parse_spec(
            "x:count=3,rate=0.5,flag=true,off=false,hole=none,tag=hi"
        )
        assert name == "x"
        assert kw == {
            "count": 3,
            "rate": 0.5,
            "flag": True,
            "off": False,
            "hole": None,
            "tag": "hi",
        }

    def test_quoted_string_literal(self):
        assert parse_spec("m:name='a b'")[1] == {"name": "a b"}

    @pytest.mark.parametrize(
        "bad", ["", "  ", ":x=1", "gtb:", "gtb:notkv", "gtb:1bad=2"]
    )
    def test_malformed_specs_raise(self, bad):
        with pytest.raises(RegistryError):
            parse_spec(bad)

    def test_round_trip_through_format_spec(self):
        spec = format_spec("gtb", {"buffer_size": 16, "tag": "hi"})
        assert parse_spec(spec) == (
            "gtb",
            {"buffer_size": 16, "tag": "hi"},
        )

    def test_commas_inside_literals_survive(self):
        kwargs = {"tag": "a,b", "dims": (2, 8), "n": 3}
        assert parse_spec(format_spec("m", kwargs))[1] == kwargs


class TestRegistry:
    def test_register_and_create(self):
        reg = Registry("widget")

        @reg.register("frob", "frobnicator")
        class Frob:
            def __init__(self, size=1):
                self.size = size

        assert reg.create("frob").size == 1
        assert reg.create("frob:size=4").size == 4
        assert reg.create("frobnicator").size == 1  # alias
        assert "frob" in reg and "FROB" in reg

    def test_underscore_dash_equivalence(self):
        reg = Registry("widget")
        reg.register("two-part")(lambda: "yes")
        assert reg.create("two_part") == "yes"

    def test_unknown_name_lists_known(self):
        reg = Registry("widget")
        reg.register("a")(lambda: 1)
        with pytest.raises(RegistryError, match="unknown widget 'b'.*a"):
            reg.factory("b")

    def test_duplicate_name_rejected(self):
        reg = Registry("widget")
        reg.register("a")(lambda: 1)
        with pytest.raises(RegistryError, match="duplicate"):
            reg.register("a")(lambda: 2)

    def test_reregistering_same_factory_is_noop(self):
        reg = Registry("widget")

        def factory():
            return 1

        reg.register("a")(factory)
        reg.register("a")(factory)  # module re-imports must not explode
        assert reg.create("a") == 1


class TestResolve:
    def test_policy_specs(self):
        assert isinstance(resolve("policy", "gtb"), GlobalTaskBuffering)
        assert isinstance(resolve("policy", "lqh"), LocalQueueHistory)
        assert isinstance(
            resolve("policy", "agnostic"), SignificanceAgnostic
        )

    def test_inline_kwargs(self):
        assert resolve("policy", "gtb:buffer_size=16").buffer_size == 16

    def test_gtb_max_aliases(self):
        for alias in ("gtb-max", "gtb_max", "gtbmax", "max-buffer"):
            assert resolve("policy", alias).buffer_size is None

    def test_instance_passthrough(self):
        policy = GlobalTaskBuffering(8)
        assert resolve("policy", policy) is policy

    def test_instance_with_overrides_rejected(self):
        with pytest.raises(RegistryError):
            resolve("policy", GlobalTaskBuffering(8), buffer_size=4)

    def test_override_kwargs_beat_spec_kwargs(self):
        p = resolve("policy", "gtb:buffer_size=16", buffer_size=4)
        assert p.buffer_size == 4

    def test_unknown_kwargs_raise(self):
        with pytest.raises(TypeError):
            resolve("policy", "gtb:frobnicate=1")
        with pytest.raises(TypeError):
            resolve("policy", "lqh:buffer_size=3")
        with pytest.raises(TypeError):
            resolve("policy", "gtb-max:buffer_size=3")

    def test_builtin_kinds_populated(self):
        kinds = available()
        assert {"gtb", "lqh", "oracle", "accurate"} <= set(
            kinds["policy"]
        )
        assert {"simulated", "threaded", "sequential", "faulty"} <= set(
            kinds["engine"]
        )
        assert {"analytic", "measured", "hybrid"} <= set(
            kinds["cost-model"]
        )
        assert "xeon-e5-2650" in kinds["machine"]
        assert available("policy") == registry_for("policy").names()

    def test_machine_spec_overrides(self):
        m = resolve("machine", "xeon:frequency_ghz=2.5")
        assert m.frequency_ghz == 2.5
