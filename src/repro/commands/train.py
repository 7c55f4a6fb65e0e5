"""``drbw train``: collect the Table II training set, fit, cross-validate,
and save the model to JSON."""

from __future__ import annotations

import json
import sys

from repro import telemetry
from repro.core.training import train_default_classifier, training_matrix
from repro.core.validation import cross_validate
from repro.numasim.machine import Machine
from repro.telemetry.artifact import collect_metadata, export_artifact


def cmd_train(args) -> int:
    machine = Machine()
    tel = telemetry.Telemetry(enabled=args.telemetry is not None)
    with telemetry.session(tel):
        clf, instances = train_default_classifier(
            machine, seed=args.seed, jobs=getattr(args, "jobs", None)
        )
        X, y = training_matrix(list(instances))
        cv = cross_validate(clf, X, y, k=10, seed=args.seed)
    print(f"trained on {len(instances)} runs; 10-fold CV accuracy {cv.accuracy:.1%}")
    print(clf.render_tree())
    with open(args.model, "w") as fh:
        json.dump(clf.to_dict(), fh, indent=2)
    print(f"model saved to {args.model}")
    if args.telemetry:
        meta = collect_metadata("train", args.seed, machine.topology,
                                model=args.model)
        results = {
            "cv_accuracy": cv.accuracy,
            "n_instances": len(instances),
        }
        export_artifact(args.telemetry, tel, meta, results)
        print(f"telemetry artifact written to {args.telemetry}", file=sys.stderr)
    return 0
