"""Campaign engine: declarative sweeps, parallel execution, cached resume.

The paper's headline results are cross-products — encoder technique ×
cost function × cell technology × benchmark trace × seed.  This package
turns such a cross-product into a set of content-addressed, individually
seeded :class:`~repro.campaign.spec.Task` objects and runs them to
completion on any number of worker processes, persisting every finished
task in a :class:`~repro.campaign.store.ResultStore` so repeated and
interrupted runs pick up exactly where they left off.

Determinism contract: a task's rows are a pure function of its ``kind``
and ``params`` (which include the seed), so a campaign's output is
bit-identical at ``jobs=1`` and ``jobs=N`` and across resumes.

Entry points:

* :func:`run_campaign` — expand, execute, resume, and aggregate;
* :func:`register_task` — plug in a new task kind;
* ``python -m repro.experiments.runner`` — regenerates the paper's
  figures through this engine (``--jobs``, ``--store-dir``, ``--set``).
"""

from repro.campaign.engine import (
    CampaignFailed,
    CampaignProgress,
    CampaignResult,
    CampaignTelemetry,
    last_campaign_telemetry,
    run_campaign,
)
from repro.campaign.executor import (
    ProcessExecutor,
    SerialExecutor,
    TaskFailure,
    TaskTelemetry,
    make_executor,
)
from repro.campaign.spec import SweepSpec, Task
from repro.campaign.store import ResultStore
from repro.campaign.tasks import (
    TaskKind,
    available_task_kinds,
    get_task_kind,
    register_task,
    run_task,
    unregister_task,
)

__all__ = [
    "CampaignFailed",
    "CampaignProgress",
    "CampaignResult",
    "CampaignTelemetry",
    "ProcessExecutor",
    "ResultStore",
    "SerialExecutor",
    "SweepSpec",
    "Task",
    "TaskFailure",
    "TaskKind",
    "TaskTelemetry",
    "available_task_kinds",
    "get_task_kind",
    "last_campaign_telemetry",
    "make_executor",
    "register_task",
    "run_campaign",
    "run_task",
    "unregister_task",
]
