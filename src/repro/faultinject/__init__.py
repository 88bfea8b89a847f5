"""Fault-injection framework (paper section 5).

Single-bit-flip injection into the destination register of a uniformly
chosen dynamic instruction, with Figure-4 outcome classification, campaign
aggregation, and the Eq. 1-4 effectiveness metrics.
"""

from repro.faultinject.campaign import (
    CampaignConfig,
    CampaignResult,
    add_campaign_arguments,
    campaign_config_from_args,
    run_campaign,
    run_paired_campaigns,
)
from repro.faultinject.engine import NO_LADDER, CampaignEngine, EngineStats
from repro.faultinject.fault_model import (
    InjectionPlan,
    flip_bit,
    plan_injections,
    select_target,
)
from repro.faultinject.injector import InjectionResult, run_injection
from repro.faultinject.journal import (
    CampaignJournal,
    JournalHeader,
    QuarantineRecord,
    plans_digest,
)
from repro.faultinject.metrics import (
    LetGoMetrics,
    Proportion,
    compute_metrics,
    crash_probability,
    overall_sdc_rate,
    proportion,
)
from repro.faultinject.outcomes import (
    FINISHED_OUTCOMES,
    LETGO_CRASH_OUTCOMES,
    Outcome,
    classify_finished,
)
from repro.faultinject.persistence import (
    atomic_write_text,
    campaign_from_json,
    campaign_to_json,
    load_campaign,
    save_campaign,
)
from repro.faultinject.sites import (
    INSTR_CLASSES,
    SiteReport,
    analyze_sites,
    classify_op,
)

__all__ = [
    "InjectionPlan",
    "plan_injections",
    "select_target",
    "flip_bit",
    "InjectionResult",
    "run_injection",
    "CampaignConfig",
    "CampaignResult",
    "add_campaign_arguments",
    "campaign_config_from_args",
    "run_campaign",
    "run_paired_campaigns",
    "CampaignEngine",
    "EngineStats",
    "NO_LADDER",
    "Outcome",
    "FINISHED_OUTCOMES",
    "LETGO_CRASH_OUTCOMES",
    "classify_finished",
    "LetGoMetrics",
    "Proportion",
    "proportion",
    "compute_metrics",
    "overall_sdc_rate",
    "crash_probability",
    "SiteReport",
    "analyze_sites",
    "classify_op",
    "INSTR_CLASSES",
    "campaign_to_json",
    "campaign_from_json",
    "save_campaign",
    "load_campaign",
    "atomic_write_text",
    "CampaignJournal",
    "JournalHeader",
    "QuarantineRecord",
    "plans_digest",
]
