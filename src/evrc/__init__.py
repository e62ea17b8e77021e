"""Deterministic engine for route-admissibility gating, reward-coverage
ratios, breakpoint classification, and evidence-graded claim gating."""

from .admissibility import BandAssignment, admit_flow, assign_band, classify_breakpoints
from .claims import CaseReport, ClaimTemplate, ClaimVerdict, gate_claim, grade_evidence, \
    render_report
from .core_model import (
    AnalysisUnit,
    Breakpoint,
    BreakpointCode,
    CaseBundle,
    ClaimBlockReason,
    ClaimLevel,
    CriticalRecipient,
    Deductions,
    DenominatorStatus,
    EvidenceGrade,
    EvidenceSource,
    GateDecision,
    GateOutcome,
    Landing,
    Motive,
    NumeratorConfig,
    Period,
    PeriodBasis,
    ReasonCode,
    RecipientClass,
    RewardDenominator,
    Route,
    RouteChecks,
    RouteKind,
    TriState,
    UnitKind,
    ValidCase,
    ValueFlow,
    Violation,
    validate_bundle,
)
from .coverage import CoverageResult, FeeShareResult, RavResult, RcrBlocked, \
    RcrInterval, RcrPoint, btc_fee_share, compute_rav, compute_rcr, \
    eth_validator_reward
from .ingest import AdapterConfig, LoadResult, fetch_block_rows, \
    fetch_protocol_fee_rows, load_case
from .numerator import NumeratorResult, net_external_value
from .pipeline import PipelineResult, run_case

__version__ = "0.1.0"
