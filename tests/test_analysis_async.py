"""Tests for the asyncio atomicity lint (RPR103).

Fixture paths live under ``src/repro/service/`` — the pass only scans
the asyncio perimeter (service/ and fabric/).
"""

import textwrap

from repro.analysis.engine import lint_paths, lint_source

PATH = "src/repro/service/fake.py"


def findings_of(source, path=PATH):
    return lint_source(path, textwrap.dedent(source))


class TestFires:
    def test_read_await_write(self):
        found = findings_of(
            """
            class Dispatcher:
                async def admit(self, key):
                    free = self._free_slots
                    await self.probe(key)
                    self._free_slots = free - 1
            """
        )
        assert len(found) == 1
        finding = found[0]
        assert finding.code == "RPR103"
        assert "`self._free_slots`" in finding.message
        assert "read at line 4" in finding.message
        assert "suspends at line 5" in finding.message
        assert finding.line == 6  # anchored at the write

    def test_check_then_act_shutdown_pattern(self):
        found = findings_of(
            """
            class Server:
                async def shutdown(self):
                    if self._server is not None:
                        self._server.close()
                        await self._server.wait_closed()
                        self._server = None
            """
        )
        assert len(found) == 1
        assert "`self._server`" in found[0].message

    def test_augmented_assign_over_await(self):
        found = findings_of(
            """
            class Counter:
                async def bump(self):
                    self._count += await self.probe()
            """
        )
        assert len(found) == 1
        assert "`self._count`" in found[0].message

    def test_container_mutation_counts_as_write(self):
        found = findings_of(
            """
            class Table:
                async def put(self, key):
                    n = len(self._jobs)
                    await self.log(n)
                    self._jobs[key] = n
            """
        )
        assert len(found) == 1
        assert "`self._jobs`" in found[0].message


class TestSilent:
    def test_lock_guarded_rmw(self):
        assert (
            findings_of(
                """
                class Dispatcher:
                    async def admit(self, key):
                        async with self._cond:
                            free = self._free_slots
                            await self.probe(key)
                            self._free_slots = free - 1
                """
            )
            == []
        )

    def test_no_await_between_read_and_write(self):
        assert (
            findings_of(
                """
                class Dispatcher:
                    async def admit(self, key):
                        await self.probe(key)
                        free = self._free_slots
                        self._free_slots = free - 1
                """
            )
            == []
        )

    def test_read_and_write_in_sibling_branches(self):
        """A read in `if` must not pair with a write in `else`."""
        assert (
            findings_of(
                """
                class Server:
                    async def start(self):
                        if self._socket:
                            bound = self._server.sockets
                            await self.announce(bound)
                        else:
                            self._server = await self.bind()
                """
            )
            == []
        )

    def test_swap_then_use_idiom(self):
        """The sanctioned fix: take ownership before the await."""
        assert (
            findings_of(
                """
                class Server:
                    async def shutdown(self):
                        server, self._server = self._server, None
                        if server is not None:
                            server.close()
                            await server.wait_closed()
                """
            )
            == []
        )

    def test_outside_async_perimeter(self):
        assert (
            findings_of(
                """
                class Core:
                    async def step(self):
                        t = self._t
                        await self.tick()
                        self._t = t + 1
                """,
                path="src/repro/core/fake.py",
            )
            == []
        )

    def test_local_variables_exempt(self):
        assert (
            findings_of(
                """
                async def run(probe):
                    count = 0
                    await probe()
                    count = count + 1
                """
            )
            == []
        )


class TestSuppression:
    def test_single_writer_noqa_consumed(self):
        source = textwrap.dedent(
            """
            class Heartbeat:
                async def tick(self):
                    beats = self._beats
                    await self.flush()
                    self._beats = beats + 1  # repro: noqa[RPR103] single writer: only the heartbeat task touches _beats
            """
        )
        assert lint_source(PATH, source) == []


class TestRepositoryIsClean:
    def test_service_and_fabric_have_no_unwaived_rmw(self):
        import os

        repo_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        result = lint_paths([os.path.join(repo_root, "src", "repro")], repo_root)
        found = [f for f in result.findings if f.code == "RPR103"]
        rendered = "\n".join(f.render() for f in found)
        assert found == [], f"await-atomicity findings:\n{rendered}"
