"""EngineOptions: validation, resolution, legacy-dict rejection."""

import pickle
from dataclasses import fields

import pytest

from repro.core.mercury import mercury_allocate
from repro.core.options import EngineOptions


class TestConstruction:
    def test_default_instance_delegates_everything(self):
        assert EngineOptions().engine_kwargs() == {}

    def test_only_set_fields_become_kwargs(self):
        options = EngineOptions(max_iterations=5, tx_power_dbm=20.0)
        assert options.engine_kwargs() == {"max_iterations": 5, "tx_power_dbm": 20.0}

    def test_frozen(self):
        with pytest.raises(AttributeError):
            EngineOptions().max_iterations = 3

    def test_picklable_with_module_level_callables(self):
        options = EngineOptions(allocator=mercury_allocate)
        assert pickle.loads(pickle.dumps(options)) == options


class TestValidation:
    def test_non_callable_allocator_rejected(self):
        with pytest.raises(TypeError):
            EngineOptions(allocator="mercury")

    def test_non_callable_rate_selector_rejected(self):
        with pytest.raises(TypeError):
            EngineOptions(rate_selector=3)

    @pytest.mark.parametrize("bad", [0, -1])
    def test_nonpositive_max_iterations_rejected(self, bad):
        with pytest.raises(ValueError):
            EngineOptions(max_iterations=bad)

    @pytest.mark.parametrize("bad", [True, 2.5, "8"])
    def test_non_int_max_iterations_rejected(self, bad):
        with pytest.raises(TypeError):
            EngineOptions(max_iterations=bad)

    def test_non_finite_tx_power_rejected(self):
        with pytest.raises(ValueError):
            EngineOptions(tx_power_dbm=float("inf"))

    def test_non_numeric_tx_power_rejected(self):
        with pytest.raises(TypeError):
            EngineOptions(tx_power_dbm="20")


class TestReplace:
    def test_replace_overrides_and_keeps_the_rest(self):
        base = EngineOptions(max_iterations=4)
        replaced = base.replace(tx_power_dbm=20.0)
        assert replaced == EngineOptions(max_iterations=4, tx_power_dbm=20.0)
        assert base == EngineOptions(max_iterations=4)

    def test_replace_revalidates(self):
        with pytest.raises(ValueError):
            EngineOptions().replace(max_iterations=0)


class TestRetiredBackend:
    """The array-backend option is gone from every spelling."""

    def test_fields_are_the_seven_engine_and_cluster_choices(self):
        assert [f.name for f in fields(EngineOptions)] == [
            "allocator",
            "rate_selector",
            "max_iterations",
            "tx_power_dbm",
            "oracle_check",
            "cluster_policy",
            "cluster_threshold_db",
        ]

    def test_backend_keyword_rejected(self):
        with pytest.raises(TypeError, match="backend"):
            EngineOptions(backend="numpy")

    def test_replace_with_backend_rejected(self):
        with pytest.raises(TypeError, match="backend"):
            EngineOptions(max_iterations=4).replace(backend="numpy")

    def test_from_env_is_gone(self):
        assert not hasattr(EngineOptions, "from_env")


class TestResolve:
    def test_none_gives_defaults(self):
        assert EngineOptions.resolve(None) == EngineOptions()

    def test_instance_passes_through_unchanged(self):
        options = EngineOptions(max_iterations=4)
        assert EngineOptions.resolve(options) is options

    def test_legacy_dict_rejected_with_migration_hint(self):
        """The engine_kwargs dict path is gone — crisp TypeError, no warning."""
        with pytest.raises(TypeError, match="engine_kwargs dict form was removed"):
            EngineOptions.resolve({"max_iterations": 4})

    def test_non_options_value_rejected(self):
        with pytest.raises(TypeError, match="EngineOptions or None"):
            EngineOptions.resolve([("max_iterations", 4)])

    def test_coerce_shim_is_gone(self):
        assert not hasattr(EngineOptions, "coerce")
