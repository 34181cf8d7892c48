"""The six Table II NLP applications, their synthetic datasets, metrics,
and the user study.

The real datasets (IMDB, MR, bAbI, SNLI, PTB, Tatoeba) are unavailable
offline; the substitution (DESIGN.md §2) keeps what the optimizations
interact with — sequence geometry and trained-model gate statistics — and
replaces task labels with *teacher labels*: the exact network's own
predictions on confidently-decided inputs. Accuracy is then agreement with
the teacher, which measures exactly the paper's Δ-accuracy (the baseline
scores 100 % by construction, and every point lost is attributable to the
approximations).
"""

from repro.workloads.datasets import SyntheticDataset, build_dataset
from repro.workloads.metrics import agreement_accuracy, prediction_margins
from repro.workloads.apps import Workload, WorkloadEvaluation, build_workload
from repro.workloads.userstudy import (
    Participant,
    ReplayProgram,
    SchemeExperience,
    UserStudy,
    sample_participants,
)

__all__ = [
    "Participant",
    "ReplayProgram",
    "SchemeExperience",
    "SyntheticDataset",
    "UserStudy",
    "Workload",
    "WorkloadEvaluation",
    "agreement_accuracy",
    "build_dataset",
    "build_workload",
    "prediction_margins",
    "sample_participants",
]
