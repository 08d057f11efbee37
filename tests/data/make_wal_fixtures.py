"""Regenerate ``tests/data/wal/``: the WALs a reference commit writes.

``tests/test_job_engine.py`` replays these next to WALs the working tree
writes for the same session, so run this against the commit whose WAL
format is the reference, from the repository root::

    PYTHONPATH=<reference checkout>/src:. python tests/data/make_wal_fixtures.py

For each server kind it records ``<kind>.wal`` (every transition, as
appended live) and ``<kind>.compacted.wal`` (what that commit's
``JobStore.open()`` compacts it to).
"""

import pathlib
import shutil
import tempfile

from repro.service.store import JobStore
from tests.engines import KINDS, Engine, lifecycle_session

OUT = pathlib.Path(__file__).parent / "wal"

if __name__ == "__main__":
    OUT.mkdir(exist_ok=True)
    for kind in KINDS:
        with tempfile.TemporaryDirectory() as tmp:
            engine = Engine(kind, pathlib.Path(tmp), gated=True)
            try:
                with engine.client() as client:
                    lifecycle_session(engine, client)
            finally:
                engine.stop()
            shutil.copy(engine.wal_path, OUT / f"{kind}.wal")
            store = JobStore(engine.wal_path, fsync=False)
            store.open()
            store.close()
            shutil.copy(engine.wal_path, OUT / f"{kind}.compacted.wal")
            print(kind, len(store.jobs), "jobs")
