"""Curriculum-taught DQN dialogue policy training for movie-ticket booking.

A teacher Q-network selects user goals for a student Q-network that learns
a dialogue policy against an agenda-based user simulator, under three
curriculum schedules with an over-repetition penalty.
"""

from .domain import (
    DialogueAct,
    GoalCorpus,
    UserGoal,
    generate_corpus,
    generate_kb_rows,
    load_corpus,
    save_corpus,
)
from .neural import QFunction
from .orchestrator import (
    TrainConfig,
    evaluate_policy,
    run_comparison,
    run_training,
)
from .user_sim import KnowledgeBase

__all__ = [
    "DialogueAct",
    "GoalCorpus",
    "KnowledgeBase",
    "QFunction",
    "TrainConfig",
    "UserGoal",
    "evaluate_policy",
    "generate_corpus",
    "generate_kb_rows",
    "load_corpus",
    "run_comparison",
    "run_training",
    "save_corpus",
]

__version__ = "0.1.0"
