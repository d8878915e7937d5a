"""The error shared by all palette modules.

Every error carries a machine-readable ``code`` from ``CODES`` (used by the
CLI's structured error output) and an optional ``context`` dict. A subclass
exists only where some caller catches the error by type; it fixes its code.
"""

from __future__ import annotations

CODES = (
    "bad_input", "io_failure",  # common
    "malformed_header", "shape_mismatch", "duplicate_name",  # tensor_store
    "schema_mismatch", "bad_density", "too_few_experts", "gate_dimension_mismatch", "unnormalized_gate",  # merge_engine
    "bad_config", "too_long", "empty_continuation",  # reference_model
    "empty_prompt", "dimension_mismatch", "non_finite_input",  # gate_router
    "wrong_rejection_count", "empty_dataset",  # align_trainer
    "length_mismatch", "support_violation", "all_zero", "negative_entry",  # metrics
    "endpoint_unreachable", "malformed_scorer_response", "empty_text",
    "backend_failure", "unparseable_distribution", "incomplete_query", "template_error",  # pipelines
)


class PaletteError(Exception):
    """A palette failure with its ``code``; a code not in ``CODES`` raises ValueError."""

    def __init__(self, code: str, message: str, **context):
        if code not in CODES:
            raise ValueError(f"unknown error code {code!r}")
        super().__init__(message)
        self.code = code
        self.context = context


class MalformedHeader(PaletteError):
    def __init__(self, message: str, **context):
        super().__init__("malformed_header", message, **context)


class DuplicateName(PaletteError):
    def __init__(self, message: str, **context):
        super().__init__("duplicate_name", message, **context)


class TooLong(PaletteError):
    def __init__(self, message: str, **context):
        super().__init__("too_long", message, **context)


class EndpointUnreachable(PaletteError):
    def __init__(self, message: str, **context):
        super().__init__("endpoint_unreachable", message, **context)


class BackendFailure(PaletteError):
    def __init__(self, message: str, label: str = "", **context):
        super().__init__("backend_failure", message, label=label, **context)
        self.label = label


class EmptySelectionWarning(UserWarning):
    """moerges_fuse found no tensor matching `merge_engine.FFN_PATTERN`, so it fused nothing."""
