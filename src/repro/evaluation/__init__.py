"""Evaluation harness: the paper's comparison of methods and its repeated-rounds protocol.

* :class:`ExperimentRunner` pre-trains once per scenario and compares the
  paper's three methods on deep copies of that learner.  Each method is an
  increment in :data:`~repro.evaluation.runner.INCREMENTS`: the
  *Pre-trained* baseline (:func:`pretrained_increment`, new-class prototypes
  on the frozen embedding), the *Re-trained* baseline
  (:func:`retrained_increment`, PILOTE's increment with α = 0) and PILOTE's
  own ``learn_new_classes``.
* :class:`RepeatedRounds` runs a round function over independent random
  streams and aggregates every quantity it returns into an
  :class:`AggregateResult` (mean ± std, as in the paper's Table 2).
* :class:`ResultTable` renders rows of such aggregates.
"""

from repro.evaluation.protocol import AggregateResult, RepeatedRounds, aggregate_values
from repro.evaluation.results import MethodResult, ResultTable
from repro.evaluation.runner import (
    ComparisonResult,
    ExperimentRunner,
    pretrained_increment,
    retrained_increment,
)

__all__ = [
    "RepeatedRounds",
    "AggregateResult",
    "aggregate_values",
    "ResultTable",
    "MethodResult",
    "ExperimentRunner",
    "ComparisonResult",
    "pretrained_increment",
    "retrained_increment",
]
