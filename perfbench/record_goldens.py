"""Record the posterior log scores that the prior-sweep workload checks against.

Run from the repository root, on the commit whose numbers are the reference:

    python3 perfbench/record_goldens.py
"""

import json
import os
import sys

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

from homcone import selection  # noqa: E402

import workloads  # noqa: E402


def main() -> None:
    models = selection.build_butterfly_models()
    reports = workloads.golden_reports(models, selection.exam_marks_summary())
    goldens = {
        name: {"winner": r.winner_id, "log_scores": {m.model_id: m.log_score for m in r.records}}
        for name, r in reports.items()
    }
    with open(workloads.GOLDENS, "w", encoding="utf-8") as fh:
        json.dump(goldens, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
