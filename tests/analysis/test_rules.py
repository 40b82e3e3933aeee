"""Per-rule fixtures: each simlint rule fires on its violation and
stays quiet on the fixed form."""

import inspect

import pytest

import repro.dram.device
from repro.analysis.engine import LintConfig

from .conftest import STRICT


def rules_of(result):
    return [v.rule for v in result.violations]


class TestDeterminism:
    def test_wall_clock_read_flagged(self, lint):
        result = lint(
            """
            import time

            def stamp():
                return time.time()
            """,
            rules=["determinism"],
        )
        assert rules_of(result) == ["determinism"]
        assert "wall clock" in result.violations[0].message

    def test_module_level_random_flagged(self, lint):
        result = lint(
            """
            import random

            def pick():
                return random.randrange(4)
            """,
            rules=["determinism"],
        )
        assert rules_of(result) == ["determinism"]

    def test_from_imported_random_flagged(self, lint):
        result = lint(
            """
            from random import randrange

            def pick():
                return randrange(4)
            """,
            rules=["determinism"],
        )
        assert rules_of(result) == ["determinism"]

    def test_unseeded_random_instance_flagged(self, lint):
        result = lint(
            """
            import random

            def make():
                return random.Random()
            """,
            rules=["determinism"],
        )
        assert rules_of(result) == ["determinism"]

    def test_seeded_random_instance_clean(self, lint):
        result = lint(
            """
            import random

            def make(seed):
                return random.Random(seed)
            """,
            rules=["determinism"],
        )
        assert result.ok

    def test_builtin_hash_flagged(self, lint):
        # The MRC ghost pass samples by address frame; deriving that
        # decision from builtin hash() would change per process
        # (PYTHONHASHSEED) and break replay.
        result = lint(
            """
            def keep(frame, rate):
                return (hash(frame) & 0xFFFFFF) < rate
            """,
            rules=["determinism"],
        )
        assert rules_of(result) == ["determinism"]
        assert "PYTHONHASHSEED" in result.violations[0].message

    def test_seeded_multiplicative_hash_clean(self, lint):
        result = lint(
            """
            def keep(frame, salt, threshold):
                mixed = ((frame ^ salt) * 2654435761) & (2**64 - 1)
                return ((mixed >> 40) & 0xFFFFFF) < threshold
            """,
            rules=["determinism"],
        )
        assert result.ok

    def test_imported_hash_name_clean(self, lint):
        # A from-imported symbol that happens to be named `hash` is not
        # the builtin; origin tracking must keep it out of scope.
        result = lint(
            """
            from mypkg.digest import hash

            def key(payload):
                return hash(payload)
            """,
            rules=["determinism"],
        )
        assert result.ok

    def test_numpy_global_rng_flagged(self, lint):
        result = lint(
            """
            import numpy as np

            def shuffle(xs):
                np.random.shuffle(xs)
            """,
            rules=["determinism"],
        )
        assert rules_of(result) == ["determinism"]

    def test_numpy_seeded_generator_clean(self, lint):
        result = lint(
            """
            import numpy as np

            def make(seed):
                return np.random.default_rng(seed)
            """,
            rules=["determinism"],
        )
        assert result.ok

    def test_numpy_unseeded_default_rng_flagged(self, lint):
        result = lint(
            """
            import numpy as np

            def make():
                return np.random.default_rng()
            """,
            rules=["determinism"],
        )
        assert rules_of(result) == ["determinism"]

    def test_datetime_now_flagged(self, lint):
        result = lint(
            """
            from datetime import datetime

            def stamp():
                return datetime.now()
            """,
            rules=["determinism"],
        )
        assert rules_of(result) == ["determinism"]

    def test_environ_iteration_flagged(self, lint):
        result = lint(
            """
            import os

            def dump():
                for key in os.environ:
                    print(key)
            """,
            rules=["determinism"],
        )
        assert rules_of(result) == ["determinism"]

    def test_unsorted_listdir_flagged_sorted_clean(self, lint):
        bad = lint(
            """
            import os

            def walk(d):
                for name in os.listdir(d):
                    print(name)
            """,
            rules=["determinism"],
        )
        assert rules_of(bad) == ["determinism"]
        good = lint(
            """
            import os

            def walk(d):
                for name in sorted(os.listdir(d)):
                    print(name)
            """,
            rules=["determinism"],
        )
        assert good.ok

    @pytest.mark.parametrize(
        "source",
        [
            "from os import listdir\n\ndef walk(d):\n"
            "    for name in listdir(d):\n        print(name)\n",
            "import numpy.random as npr\n\ndef make():\n"
            "    return npr.default_rng()\n",
            "from random import Random\n\ndef make():\n    return Random()\n",
            "from time import strftime\n\ndef stamp():\n"
            "    return strftime('%Y')\n",
        ],
    )
    def test_import_aliases_resolve_to_the_dotted_name(self, lint, source):
        # Names resolve through the module's import table, so an alias
        # or a from-import is banned exactly like its dotted form.
        assert rules_of(lint(source, rules=["determinism"])) == ["determinism"]

    def test_local_named_like_a_module_is_not_the_module(self, lint):
        result = lint(
            """
            def pick(random, time):
                return random.choice([time.time()])
            """,
            rules=["determinism"],
        )
        assert result.ok

    def test_set_iteration_flagged(self, lint):
        result = lint(
            """
            def walk():
                for name in {"a", "b"}:
                    print(name)
            """,
            rules=["determinism"],
        )
        assert rules_of(result) == ["determinism"]

    def test_allowlisted_module_is_skipped(self, lint):
        allow = LintConfig(determinism_allow=("mod.py",), slots_modules=())
        result = lint(
            """
            import time

            def stamp():
                return time.time()
            """,
            rules=["determinism"],
            config=allow,
        )
        assert result.ok


class TestHotPathPurity:
    def test_comprehension_flagged(self, lint):
        result = lint(
            """
            def gather_fast(xs):
                return [x + 1 for x in xs]
            """,
            rules=["hot-path-purity"],
        )
        assert rules_of(result) == ["hot-path-purity"]
        assert "ListComp" in result.violations[0].message

    def test_lambda_flagged(self, lint):
        result = lint(
            """
            def rank_fast(xs):
                key = lambda x: -x
                return key
            """,
            rules=["hot-path-purity"],
        )
        assert rules_of(result) == ["hot-path-purity"]

    def test_nested_def_flagged(self, lint):
        result = lint(
            """
            def drive_fast(xs):
                def helper(x):
                    return x
                return helper
            """,
            rules=["hot-path-purity"],
        )
        assert rules_of(result) == ["hot-path-purity"]

    def test_kwargs_expansion_flagged(self, lint):
        result = lint(
            """
            def call_fast(fn, kw):
                return fn(**kw)
            """,
            rules=["hot-path-purity"],
        )
        assert rules_of(result) == ["hot-path-purity"]

    def test_dataclass_instantiation_flagged(self, lint):
        result = lint(
            """
            from dataclasses import dataclass

            @dataclass(slots=True)
            class Rec:
                x: int

            def make_fast():
                return Rec(1)
            """,
            rules=["hot-path-purity"],
        )
        assert rules_of(result) == ["hot-path-purity"]
        assert "Rec" in result.violations[0].message

    def test_plain_fast_function_clean(self, lint):
        result = lint(
            """
            def add_fast(a, b):
                total = 0
                for x in (a, b):
                    total += x
                return total

            def slow_path(xs):
                return [x for x in xs]  # comprehensions fine off hot path
            """,
            rules=["hot-path-purity"],
        )
        assert result.ok

    def test_device_timing_kernel_is_a_hot_path(self, lint):
        """The DRAM device's one timing kernel matches the hot-path
        pattern: a comprehension injected into it is a finding."""
        source = inspect.getsource(repro.dram.device)
        head, sep, tail = source.partition("    def _timed_fast(")
        assert sep, "the device kernel is named _timed_fast"
        docstring_end = tail.index('"""', tail.index('"""') + 3) + len('"""\n')
        injected = (
            head + sep + tail[:docstring_end]
            + "        _ = [free for free in self._bus_free]\n"
            + tail[docstring_end:]
        )
        clean = lint(source, rules=["hot-path-purity"], filename="dram/device.py")
        assert clean.ok
        result = lint(injected, rules=["hot-path-purity"], filename="dram/device.py")
        assert rules_of(result) == ["hot-path-purity"]
        assert "_timed_fast allocates a ListComp" in result.violations[0].message


class TestSchemeRegistry:
    STUB = """
        class DRAMCacheBase:
            pass

        class NewCache(DRAMCacheBase):
            def _access_fast(self, address, now, is_write):
                self._hit = True
                return now
        """
    REGISTRY = """
        def register_scheme(name, builder):
            pass

        register_scheme("new", lambda ctx: NewCache())
        """

    def test_registered_contract_clean(self, lint):
        result = lint(
            self.STUB,
            rules=["scheme-registry"],
            extra={"schemes.py": self.REGISTRY},
        )
        assert result.ok

    def test_unregistered_scheme_flagged(self, lint):
        registry = self.REGISTRY.replace("NewCache", "OtherCache")
        result = lint(
            self.STUB,
            rules=["scheme-registry"],
            extra={"schemes.py": registry},
        )
        assert rules_of(result) == ["scheme-registry"]
        assert "register_scheme" in result.violations[0].message

    def test_contract_signature_flagged(self, lint):
        result = lint(
            """
            class DRAMCacheBase:
                pass

            class NewCache(DRAMCacheBase):
                def _access_fast(self, addr):
                    self._hit = True
                    return addr
            """,
            rules=["scheme-registry"],
            extra={"schemes.py": self.REGISTRY},
        )
        assert rules_of(result) == ["scheme-registry"]
        assert "signature" in result.violations[0].message

    def test_missing_hit_scratch_flagged(self, lint):
        result = lint(
            """
            class DRAMCacheBase:
                pass

            class NewCache(DRAMCacheBase):
                def _access_fast(self, address, now, is_write):
                    return now
            """,
            rules=["scheme-registry"],
            extra={"schemes.py": self.REGISTRY},
        )
        assert rules_of(result) == ["scheme-registry"]
        assert "_hit" in result.violations[0].message

    def test_abstract_intermediate_not_flagged(self, lint):
        result = lint(
            """
            class DRAMCacheBase:
                pass

            class Intermediate(DRAMCacheBase):
                pass  # no _access_fast override: not a concrete scheme
            """,
            rules=["scheme-registry"],
            extra={"schemes.py": self.REGISTRY},
        )
        assert result.ok


class TestStatsProtocol:
    def test_duplicate_key_flagged(self, lint):
        result = lint(
            """
            class Stats:
                def to_dict(self):
                    return {"hits": 1, "hits": 2}
            """,
            rules=["stats-protocol"],
        )
        assert rules_of(result) == ["stats-protocol"]
        assert "duplicate" in result.violations[0].message

    def test_computed_key_flagged(self, lint):
        result = lint(
            """
            class Stats:
                def stats_snapshot(self):
                    out = {}
                    out[self.name] = 1
                    return out
            """,
            rules=["stats-protocol"],
        )
        assert rules_of(result) == ["stats-protocol"]
        assert "computed key" in result.violations[0].message

    def test_whitespace_key_flagged(self, lint):
        result = lint(
            """
            class Stats:
                def to_dict(self):
                    return {"hit rate": 0.5}
            """,
            rules=["stats-protocol"],
        )
        assert rules_of(result) == ["stats-protocol"]

    def test_namespaced_fstring_and_update_clean(self, lint):
        result = lint(
            """
            class Stats:
                def to_dict(self):
                    out = {"hits": 1, "misses": 2}
                    out[f"dram_cache.{self.name}"] = 3
                    out.update(self.extra)
                    return out
            """,
            rules=["stats-protocol"],
        )
        assert result.ok

    def test_other_methods_ignored(self, lint):
        result = lint(
            """
            class Stats:
                def render(self):
                    return {self.name: 1, "k": 2, "k": 3}
            """,
            rules=["stats-protocol"],
        )
        assert result.ok


class TestSlots:
    def test_plain_class_without_slots_flagged(self, lint):
        result = lint(
            """
            class Block:
                def __init__(self):
                    self.tag = 0
            """,
            rules=["slots"],
        )
        assert rules_of(result) == ["slots"]
        assert "__slots__" in result.violations[0].message

    def test_dataclass_without_slots_flagged(self, lint):
        result = lint(
            """
            from dataclasses import dataclass

            @dataclass
            class Rec:
                x: int
            """,
            rules=["slots"],
        )
        assert rules_of(result) == ["slots"]
        assert "slots=True" in result.violations[0].message

    def test_slotted_forms_clean(self, lint):
        result = lint(
            """
            from dataclasses import dataclass

            @dataclass(frozen=True, slots=True)
            class Rec:
                x: int

            class Block:
                __slots__ = ("tag",)

                def __init__(self):
                    self.tag = 0
            """,
            rules=["slots"],
        )
        assert result.ok

    def test_exception_and_abc_hierarchies_exempt(self, lint):
        result = lint(
            """
            from abc import ABC

            class SimError(ValueError):
                pass

            class Organizer(ABC):
                def __init__(self):
                    self.table = {}

            class Concrete(Organizer):
                def __init__(self):
                    super().__init__()
                    self.extra = 1
            """,
            rules=["slots"],
        )
        assert result.ok

    def test_cold_module_not_checked(self, lint):
        cold = LintConfig(determinism_allow=(), slots_modules=("hot/*.py",))
        result = lint(
            """
            class Block:
                def __init__(self):
                    self.tag = 0
            """,
            rules=["slots"],
            config=cold,
        )
        assert result.ok


class TestSyntaxHandling:
    def test_syntax_error_is_a_finding_not_a_crash(self, lint):
        result = lint(
            """
            def broken(:
            """,
            rules=["determinism"],
        )
        assert rules_of(result) == ["syntax"]

    def test_unreadable_file_is_a_finding_not_a_crash(self, lint, tmp_path):
        (tmp_path / "latin1.py").write_bytes(b"name = '\xe9t\xe9'\n")
        result = lint(
            """
            import time

            def stamp():
                return time.time()
            """,
            rules=["determinism"],
        )
        assert [(v.rule, v.path) for v in result.violations] == [
            ("syntax", "latin1.py"),
            ("determinism", "mod.py"),
        ]
        assert "unreadable file" in result.violations[0].message
        assert result.files_scanned == 2


def test_strict_fixture_config_is_strict():
    # The fixtures above rely on these two properties; pin them.
    assert STRICT.determinism_allow == ()
    assert STRICT.slots_modules == ("*.py",)
