"""The metric tables in ``docs/observability.md`` match what is emitted.

The metric twin of ``tests/test_knob_table.py``.  Every row of a table
under "## Metric reference" names one or more ``repro_*`` families
(backticked, in the first column), their kind and their label names.
The test drives everything that emits metrics — a thread runtime and a
process runtime (tiered, budgeted, with a failing request, a dimension
update and a ``predict_all``), ``serve()``, a fit and a
``ModelMaintainer`` — and checks both directions: every emitted family
is documented with the kind and labels it is emitted with, and every
documented family is emitted by one of them.
"""

import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from repro.core.api import fit_gmm, fit_nn, serve, serve_runtime
from repro.data.synthetic import StarSchemaConfig, generate_star
from repro.errors import ModelError
from repro.maintain import ModelMaintainer
from repro.obs import Telemetry
from repro.storage.catalog import Database

OBSERVABILITY = (
    Path(__file__).resolve().parents[1] / "docs" / "observability.md"
)

# Process mode's tier transition counters are ladder totals, exported
# unlabeled — the documented exception (the paragraph under the store
# table), accepted for these two families from the process runtime.
PROCESS_LADDER_TOTALS = {
    "repro_store_tier_demotions_total",
    "repro_store_tier_promotions_total",
}


def documented_families() -> dict[str, tuple[str, tuple[str, ...]]]:
    """``{family: (kind, sorted label names)}`` over every table row
    between "## Metric reference" and the next top-level section."""
    text = OBSERVABILITY.read_text(encoding="utf-8")
    section = text.split("## Metric reference", 1)[1].split("\n## ", 1)[0]
    families = {}
    for line in section.splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if not line.startswith("| `repro_") or len(cells) < 4:
            continue
        labels = tuple(sorted(re.findall(r"`(\w+)`", cells[2])))
        for name in re.findall(r"`(repro_\w+)`", cells[0]):
            assert name not in families, f"{name} documented twice"
            families[name] = (cells[1], labels)
    return families


def a_request(db, spec, n):
    fact = spec.resolve(db).fact
    rows = fact.scan()[:n]
    fk = rows[:, fact.schema.fk_position("R1")].astype(np.int64)
    return fact.project_features(rows), fk


def drive_runtime(db, spec, gmm, nn, executor):
    features, fk = a_request(db, spec, 64)
    with serve_runtime(
        db, num_workers=2, executor=executor, telemetry=True,
        memory_budget=512, store_tiers=("float32", "spill"),
    ) as rt:
        rt.register_gmm("g", gmm, spec)                 # adaptive
        rt.register_nn("n", nn, spec, strategy="factorized")
        futures = [
            rt.submit(name, features[i:i + 4], fk[i:i + 4])
            for i in range(0, 64, 4)
            for name in ("g", "n")
        ]
        for future in futures:
            future.result(30.0)
        with pytest.raises(ModelError):                 # dangling FK
            rt.predict("n", features[:2], fk[:2] * 0 + 10**6)
        relation = db["R1"]
        position = relation.positions_of_keys(fk[:1])
        row = relation.scan()[position[0]].copy()
        row[1:] += 1.0
        db.update_rows("R1", position, row[None, :])
        if executor == "thread":     # process mode serves batches only
            rt.predict_all("g")
        return rt.telemetry.snapshot()


@pytest.fixture(scope="module")
def emitted(tmp_path_factory):
    """``{family: {(kind, label names, emitter)}}`` across every
    emitter."""
    db = Database(tmp_path_factory.mktemp("metric-table"))
    spec = generate_star(
        db, StarSchemaConfig.binary(
            n_s=500, n_r=25, d_s=3, d_r=5, with_target=True, seed=7
        ),
    ).spec
    snapshots = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        training = Telemetry()
        gmm = fit_gmm(
            db, spec, n_components=2, max_iter=2, seed=1,
            telemetry=training,
        )
        nn = fit_nn(
            db, spec, hidden_sizes=(6,), epochs=1, seed=1,
            telemetry=training,
        )
        snapshots["fit"] = training.snapshot()
        for executor in ("thread", "process"):
            snapshots[executor] = drive_runtime(db, spec, gmm, nn, executor)
        with serve(db, telemetry=True) as service:
            service.register_gmm("g", gmm, spec)
            service.predict("g", *a_request(db, spec, 16))
            snapshots["serve"] = service.telemetry.snapshot()
        maintaining = Telemetry()
        with ModelMaintainer(db, "m", "gmm", spec, gmm, telemetry=maintaining):
            snapshots["maintainer"] = maintaining.snapshot()
    db.close()
    families: dict[str, set] = {}
    for emitter, snapshot in snapshots.items():
        for sample in snapshot.samples:
            labels = tuple(sorted(name for name, _ in sample.labels))
            families.setdefault(sample.name, set()).add(
                (sample.kind, labels, emitter)
            )
    return families


DOCUMENTED = documented_families()


def test_the_tables_are_found():
    assert len(DOCUMENTED) >= 50


def test_every_emitted_family_is_documented_as_emitted(emitted):
    wrong = []
    for name, shapes in sorted(emitted.items()):
        if name not in DOCUMENTED:
            wrong.append(f"{name}: undocumented")
            continue
        for kind, labels, emitter in shapes:
            if (kind, labels) == DOCUMENTED[name]:
                continue
            if (emitter, labels) == ("process", ()) and (
                name in PROCESS_LADDER_TOTALS
            ):
                continue
            wrong.append(
                f"{name}: {emitter} emits {kind} {labels}, "
                f"documented {DOCUMENTED[name]}"
            )
    assert wrong == []


def test_every_documented_family_is_emitted(emitted):
    assert sorted(set(DOCUMENTED) - set(emitted)) == []
