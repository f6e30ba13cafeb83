"""Integration tests for lowercase (pickled-object) collectives."""

import pytest

from repro import mpi
from repro.runtime.launcher import run_spmd


@pytest.fixture(params=[1, 3, 4])
def nprocs(request):
    return request.param


class TestBcast:
    def test_bcast_object(self, nprocs):
        def main(env):
            comm = env.COMM_WORLD
            data = {"from": "root", "n": comm.size()} if comm.rank() == 0 else None
            return comm.bcast(data, root=0)

        expected = {"from": "root", "n": nprocs}
        assert run_spmd(main, nprocs) == [expected] * nprocs

    def test_bcast_from_nonzero_root(self, nprocs):
        if nprocs < 2:
            pytest.skip("needs >= 2 ranks")

        def main(env):
            comm = env.COMM_WORLD
            data = "payload" if comm.rank() == 1 else None
            return comm.bcast(data, root=1)

        assert run_spmd(main, nprocs) == ["payload"] * nprocs


class TestGatherScatter:
    def test_gather(self, nprocs):
        def main(env):
            comm = env.COMM_WORLD
            return comm.gather(f"r{comm.rank()}", root=0)

        results = run_spmd(main, nprocs)
        assert results[0] == [f"r{r}" for r in range(nprocs)]
        assert all(r is None for r in results[1:])

    def test_scatter(self, nprocs):
        def main(env):
            comm = env.COMM_WORLD
            items = [i * i for i in range(comm.size())] if comm.rank() == 0 else None
            return comm.scatter(items, root=0)

        assert run_spmd(main, nprocs) == [r * r for r in range(nprocs)]

    def test_scatter_wrong_length(self, nprocs):
        def main(env):
            comm = env.COMM_WORLD
            if comm.rank() == 0:
                with pytest.raises(mpi.MPIException):
                    comm.scatter([1] * (comm.size() + 1), root=0)
                # Recover the other ranks with a real scatter.
                comm.scatter(list(range(comm.size())), root=0)
            else:
                comm.scatter(None, root=0)
            return True

        assert all(run_spmd(main, nprocs))

    @pytest.mark.parametrize("pick", ["last", "middle"])
    def test_gather_any_root(self, nprocs, pick):
        root = nprocs - 1 if pick == "last" else nprocs // 2

        def main(env):
            comm = env.COMM_WORLD
            return comm.gather({"rank": comm.rank()}, root=root)

        results = run_spmd(main, nprocs)
        assert results[root] == [{"rank": r} for r in range(nprocs)]
        assert all(got is None for r, got in enumerate(results) if r != root)

    @pytest.mark.parametrize("pick", ["last", "middle"])
    def test_scatter_any_root(self, nprocs, pick):
        root = nprocs - 1 if pick == "last" else nprocs // 2

        def main(env):
            comm = env.COMM_WORLD
            items = None
            if comm.rank() == root:
                items = tuple(("item", i) for i in range(comm.size()))
            return comm.scatter(items, root=root)

        assert run_spmd(main, nprocs) == [("item", r) for r in range(nprocs)]

    def test_scatter_wrong_length_any_root(self, nprocs):
        root = nprocs - 1

        def main(env):
            comm = env.COMM_WORLD
            if comm.rank() == root:
                with pytest.raises(mpi.MPIException):
                    comm.scatter([1] * (comm.size() - 1), root=root)
                with pytest.raises(mpi.MPIException):
                    comm.scatter(None, root=root)
                return comm.scatter(list(range(comm.size())), root=root)
            return comm.scatter(None, root=root)

        assert run_spmd(main, nprocs) == list(range(nprocs))

    def test_allgather(self, nprocs):
        def main(env):
            comm = env.COMM_WORLD
            return comm.allgather((comm.rank(), "tag"))

        expected = [(r, "tag") for r in range(nprocs)]
        assert run_spmd(main, nprocs) == [expected] * nprocs

    def test_alltoall(self, nprocs):
        def main(env):
            comm = env.COMM_WORLD
            rank, size = comm.rank(), comm.size()
            return comm.alltoall([f"{rank}->{j}" for j in range(size)])

        results = run_spmd(main, nprocs)
        for rank, got in enumerate(results):
            assert got == [f"{src}->{rank}" for src in range(nprocs)]


class TestReduceScan:
    def test_reduce_default_add(self, nprocs):
        def main(env):
            comm = env.COMM_WORLD
            return comm.reduce([comm.rank()], root=0)

        results = run_spmd(main, nprocs)
        assert results[0] == list(range(nprocs))

    def test_reduce_custom_op(self, nprocs):
        def main(env):
            comm = env.COMM_WORLD
            return comm.reduce(comm.rank() + 1, op=lambda a, b: a * b, root=0)

        results = run_spmd(main, nprocs)
        expected = 1
        for r in range(nprocs):
            expected *= r + 1
        assert results[0] == expected

    def test_allreduce(self, nprocs):
        def main(env):
            comm = env.COMM_WORLD
            return comm.allreduce(comm.rank(), op=max)

        assert run_spmd(main, nprocs) == [nprocs - 1] * nprocs

    def test_scan(self, nprocs):
        def main(env):
            comm = env.COMM_WORLD
            return comm.scan([comm.rank()])

        results = run_spmd(main, nprocs)
        assert results == [[i for i in range(r + 1)] for r in range(nprocs)]
