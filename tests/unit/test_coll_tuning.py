"""Decision-table selection: rules, JSON round-trips, env loading,
the built-in defaults (golden selection table, netsim cross-checks),
and collective metrics."""

import json
import warnings

import numpy as np
import pytest

from repro import mpi
from repro.mpi import algorithms, tuning
from repro.mpi.tuning import DecisionTable, Rule
from repro.runtime.launcher import run_spmd


class TestRules:
    def test_bounds(self):
        r = Rule("ring", max_bytes=1024, max_procs=4)
        assert r.matches(1024, 4)
        assert not r.matches(1025, 4)
        assert not r.matches(1024, 5)
        assert Rule("ring").matches(1 << 40, 10_000)

    def test_first_match_wins(self):
        table = DecisionTable(
            {
                "bcast": [
                    Rule("linear", max_bytes=100),
                    Rule("binomial", max_bytes=100),  # shadowed
                    Rule("scatter_allgather"),
                ]
            }
        )
        assert table.choose("bcast", 50, 8) == "linear"
        assert table.choose("bcast", 200, 8) == "scatter_allgather"
        # No rule for reduce: the built-in default.
        assert table.choose("reduce", 50, 8) == algorithms.DEFAULTS["reduce"]

    def test_bad_rule_rejected(self):
        with pytest.raises(mpi.MPIException):
            Rule.from_dict({"max_bytes": 10})  # no algorithm
        with pytest.raises(mpi.MPIException):
            Rule.from_dict({"algorithm": "ring", "max_bytes": -1})
        with pytest.raises(mpi.MPIException):
            Rule.from_dict({"algorithm": "ring", "max_procs": "four"})


class TestSerialization:
    def test_round_trip(self, tmp_path):
        table = DecisionTable(
            {
                "allreduce": [
                    Rule("recursive_doubling", max_bytes=4096),
                    Rule("rabenseifner"),
                ],
                "bcast": [Rule("linear", max_procs=3)],
            }
        )
        path = tmp_path / "tuned.json"
        table.save(str(path))
        loaded = DecisionTable.load(str(path))
        assert loaded.to_dict() == table.to_dict()
        assert loaded.choose("allreduce", 4096, 8) == "recursive_doubling"
        assert loaded.choose("allreduce", 4097, 8) == "rabenseifner"

    def test_format_tag_required(self):
        with pytest.raises(mpi.MPIException):
            DecisionTable.from_dict({"tables": {}})

    def test_unknown_algorithm_rejected(self):
        data = {
            "format": tuning.FORMAT,
            "tables": {"bcast": [{"algorithm": "carrier-pigeon"}]},
        }
        with pytest.raises(mpi.MPIException):
            DecisionTable.from_dict(data)


class TestEnvLoading:
    def test_env_table_overrides_builtin(self, tmp_path, monkeypatch):
        path = tmp_path / "tuned.json"
        DecisionTable({"bcast": [Rule("linear")]}).save(str(path))
        monkeypatch.setenv(tuning.ENV, str(path))
        assert tuning.select("bcast", 1 << 20, 8) == "linear"
        # No rule for reduce -> the built-in default.
        assert tuning.select("reduce", 16, 8) == algorithms.DEFAULTS["reduce"]

    def test_bad_file_warns_and_falls_back(self, tmp_path, monkeypatch):
        path = tmp_path / "broken.json"
        path.write_text(json.dumps({"format": "wrong"}), encoding="utf-8")
        monkeypatch.setenv(tuning.ENV, str(path))
        tuning._loaded = (None, None)  # drop the cache for this path
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            choice = tuning.select("allreduce", 64, 8)
        assert any(issubclass(w.category, RuntimeWarning) for w in caught)
        assert choice == algorithms.DEFAULTS["allreduce"]

    def test_unset_env_uses_builtin(self, monkeypatch):
        monkeypatch.delenv(tuning.ENV, raising=False)
        assert tuning.select("allreduce", 64, 8) == algorithms.DEFAULTS["allreduce"]


class TestBuiltinTable:
    def test_every_rule_names_a_registered_algorithm(self):
        """Every default names a registry entry, and every registry
        entry is a real function (no special-cased built-ins)."""
        assert set(algorithms.DEFAULTS) == set(algorithms.REGISTRY)
        for coll, name in algorithms.DEFAULTS.items():
            assert name in algorithms.REGISTRY[coll]
        for choices in algorithms.REGISTRY.values():
            assert all(callable(fn) for fn in choices.values())

    def test_every_collective_resolves_at_any_size(self):
        """Selection always yields a registered name."""
        for coll in algorithms.REGISTRY:
            for nbytes in (0, 1024, 1 << 17, 1 << 24):
                for nprocs in (1, 2, 8, 64):
                    assert tuning.select(coll, nbytes, nprocs) in algorithms.REGISTRY[coll]

    def test_netsim_crosscheck(self):
        """The defaults stay within 4x of the analytic model optimum
        except for a documented set of shared-memory divergences.

        The defaults are tuned on smdev, where payload moves by reference and
        bandwidth terms vanish; the Hockney-style network models favour
        bandwidth-optimal algorithms at 1 MB that lose on shared
        memory.  Benchmarks trump models — the divergent cells below
        are exactly where a network deployment should re-tune via
        REPRO_COLL_TUNING.
        """
        from repro.netsim.collectives import crosscheck
        from repro.netsim.libraries import libraries_for

        lib = libraries_for("GigabitEthernet")["MPJ Express"]
        cells = [
            (coll, p, m)
            for coll in (
                "bcast", "reduce", "allreduce", "reduce_scatter",
                "gather", "scatter", "allgather", "allgatherv",
            )
            for p in (4, 8)
            for m in (1024, 1 << 20)
        ]
        # A table with no rules selects exactly algorithms.DEFAULTS.
        rows = crosscheck(lib, DecisionTable(), cells, slack=4.0)
        divergent = {
            (r["collective"], r["procs"], r["bytes"])
            for r in rows
            if not r["agrees"]
        }
        known_smdev_divergences = {
            ("reduce_scatter", 8, 1 << 20),
            ("allgather", 8, 1 << 20),
            ("allgatherv", 8, 1 << 20),
        }
        assert divergent <= known_smdev_divergences, divergent
        # Where the model has a clear large-message opinion that also
        # wins on smdev, the table must agree outright: Rabenseifner.
        allreduce_rows = [r for r in rows if r["collective"] == "allreduce"]
        assert all(r["agrees"] for r in allreduce_rows)


class TestLabeledMetrics:
    def test_labeled_name_rendering(self):
        from repro.obs.metrics import labeled_name

        assert (
            labeled_name("coll.bcast", {"algorithm": "binomial"})
            == "coll.bcast{algorithm=binomial}"
        )
        # Keys sort, so the rendered name is order-independent.
        assert labeled_name("x", {"b": "2", "a": "1"}) == "x{a=1,b=2}"

    def test_counter_label_is_same_instrument(self):
        from repro.obs.metrics import MetricsRegistry

        reg = MetricsRegistry("test")
        c1 = reg.counter("coll.bcast", labels={"algorithm": "linear"})
        c2 = reg.counter("coll.bcast{algorithm=linear}")
        c1.inc()
        assert c2.value == 1


class TestTuningChangesAlgorithm:
    def test_env_table_changes_selection_visibly(self, tmp_path, monkeypatch):
        """A tuned table round-trips through REPRO_COLL_TUNING and the
        algorithm actually used shows up in the labeled metrics."""
        path = tmp_path / "tuned.json"
        DecisionTable({"bcast": [Rule("scatter_allgather")]}).save(str(path))

        def main(env):
            comm = env.COMM_WORLD
            buf = np.arange(64, dtype=np.int64) * (comm.rank() == 0)
            comm.Bcast(buf, 0, 64, mpi.LONG, 0)
            snap = env.device.engine.metrics.snapshot()
            return buf.tolist(), snap.get("counters", {})

        def counters_for(run):
            return [c for _, c in run]

        monkeypatch.delenv(tuning.ENV, raising=False)
        default_run = run_spmd(main, 4)
        monkeypatch.setenv(tuning.ENV, str(path))
        tuned_run = run_spmd(main, 4)

        expected = list(range(64))
        assert all(buf == expected for buf, _ in default_run + tuned_run)
        # Default path: linear (algorithms.DEFAULTS).
        assert any(
            c.get("coll.bcast{algorithm=linear}") for c in counters_for(default_run)
        )
        assert not any(
            c.get("coll.bcast{algorithm=scatter_allgather}")
            for c in counters_for(default_run)
        )
        # Tuned path: the table's pick, visible in the labels.
        assert any(
            c.get("coll.bcast{algorithm=scatter_allgather}")
            for c in counters_for(tuned_run)
        )


class TestGoldenSelection:
    #: The algorithm every tunable collective selected with no override
    #: and REPRO_COLL_TUNING unset, recorded on the code base before the
    #: defaults moved into algorithms.REGISTRY.  Constant over the grid.
    GOLDEN = {
        "allgather": "gather_bcast",
        "allgatherv": "gather_bcast",
        "allreduce": "reduce_bcast",
        "bcast": "linear",
        "gather": "linear",
        "reduce": "linear",
        "reduce_scatter": "reduce_scatterv",
        "scatter": "linear",
    }
    SIZES = (0, 8, 64 << 10, 1 << 20, 16 << 20)

    @pytest.mark.parametrize("nprocs", [1, 2, 3, 8])
    def test_selection_matches_recorded_table(self, nprocs, monkeypatch):
        monkeypatch.delenv(tuning.ENV, raising=False)
        sizes = self.SIZES

        def main(env):
            comm = env.COMM_WORLD
            return {
                coll: [comm._select_algorithm(coll, n)[0] for n in sizes]
                for coll in algorithms.REGISTRY
            }

        expected = {coll: [name] * len(sizes) for coll, name in self.GOLDEN.items()}
        assert run_spmd(main, nprocs) == [expected] * nprocs


class TestCollectiveMetrics:
    @staticmethod
    def _coll_metrics(env):
        snap = env.device.engine.metrics.snapshot()
        counters = {
            k: v for k, v in snap.get("counters", {}).items() if k.startswith("coll.")
        }
        return counters, snap.get("histograms", {}).get("coll.bytes")

    def test_allreduce_counts_user_calls_only(self):
        """The composed reduce+bcast allreduce must not tick the
        sub-collectives it runs: one coll.allreduce tick and one
        coll.bytes observation per user call."""

        def main(env):
            comm = env.COMM_WORLD
            send = np.full(1, comm.rank() + 1.0)
            recv = np.empty(1)
            for _ in range(10):
                comm.Allreduce(send, 0, recv, 0, 1, mpi.DOUBLE, mpi.SUM)
            return recv[0], TestCollectiveMetrics._coll_metrics(env)

        for total, (counters, nbytes) in run_spmd(main, 2, device="niodev"):
            assert total == 3.0
            assert counters == {
                "coll.allreduce": 10,
                "coll.allreduce{algorithm=reduce_bcast}": 10,
            }
            assert (nbytes["count"], nbytes["sum"]) == (10, 80)

    CALLS = {
        "allgather": lambda c, a, b: c.Allgather(a, 0, 2, None, b, 0, 2, None),
        "allgatherv": lambda c, a, b: c.Allgatherv(
            a, 0, 2, None, b, 0, [2] * c.size(), [2 * r for r in range(c.size())], None
        ),
        "reduce_scatter": lambda c, a, b: c.Reduce_scatter(
            b, 0, a, 0, [2] * c.size(), None, mpi.SUM
        ),
    }

    @pytest.mark.parametrize("collective", sorted(CALLS))
    def test_composed_defaults_tick_once(self, collective):
        """Composed defaults (gather+bcast, reduce+scatterv) count as
        one call of the user's collective."""
        call = self.CALLS[collective]

        def main(env):
            comm = env.COMM_WORLD
            a = np.full(2, comm.rank(), dtype=np.int64)
            b = np.zeros(2 * comm.size(), dtype=np.int64)
            call(comm, a, b)
            return TestCollectiveMetrics._coll_metrics(env)

        for counters, nbytes in run_spmd(main, 3):
            assert {k for k in counters if "{" not in k} == {f"coll.{collective}"}
            assert nbytes["count"] == 1
