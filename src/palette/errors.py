"""Exception hierarchy shared by all palette modules.

Every error carries a machine-readable ``code`` (used by the CLI's
structured error output) and an optional ``context`` dict.
"""

from __future__ import annotations


class PaletteError(Exception):
    """Base class for all palette failures."""

    code = "error"

    def __init__(self, message: str, **context):
        super().__init__(message)
        self.context = context


# --- common ---------------------------------------------------------------

class BadInput(PaletteError):
    """A data file line that cannot be read as the expected JSON object; context
    names path and line."""

    code = "bad_input"


# --- tensor_store ---------------------------------------------------------

class MalformedHeader(PaletteError):
    code = "malformed_header"


class ShapeMismatch(PaletteError):
    code = "shape_mismatch"


class DuplicateName(PaletteError):
    code = "duplicate_name"


class IoFailure(PaletteError):
    code = "io_failure"


class EmptySelectionWarning(UserWarning):
    """A tensor-name glob matched nothing; the empty subset is still returned."""


# --- merge_engine ---------------------------------------------------------

class SchemaMismatch(PaletteError):
    code = "schema_mismatch"


class BadDensity(PaletteError):
    code = "bad_density"


class TooFewExperts(PaletteError):
    code = "too_few_experts"


class GateDimensionMismatch(PaletteError):
    code = "gate_dimension_mismatch"


class UnnormalizedGate(PaletteError):
    code = "unnormalized_gate"


# --- reference_model ------------------------------------------------------

class BadConfig(PaletteError):
    code = "bad_config"


class TooLong(PaletteError):
    code = "too_long"


class EmptyContinuation(PaletteError):
    code = "empty_continuation"


# --- gate_router ----------------------------------------------------------

class EmptyPrompt(PaletteError):
    code = "empty_prompt"


class DimensionMismatch(PaletteError):
    code = "dimension_mismatch"


class NonFiniteInput(PaletteError):
    code = "non_finite_input"


# --- align_trainer --------------------------------------------------------

class WrongRejectionCount(PaletteError):
    code = "wrong_rejection_count"


class EmptyDataset(PaletteError):
    code = "empty_dataset"


# --- metrics --------------------------------------------------------------

class LengthMismatch(PaletteError):
    code = "length_mismatch"


class SupportViolation(PaletteError):
    code = "support_violation"


class AllZero(PaletteError):
    code = "all_zero"


class NegativeEntry(PaletteError):
    code = "negative_entry"


class EndpointUnreachable(PaletteError):
    code = "endpoint_unreachable"


class MalformedScorerResponse(PaletteError):
    code = "malformed_scorer_response"


class EmptyText(PaletteError):
    code = "empty_text"


# --- agent_pipeline / data_synth ------------------------------------------

class BackendFailure(PaletteError):
    code = "backend_failure"

    def __init__(self, message: str, label: str = "", **context):
        super().__init__(message, label=label, **context)
        self.label = label


class UnparseableDistribution(PaletteError):
    code = "unparseable_distribution"


class IncompleteQuery(PaletteError):
    code = "incomplete_query"


class TemplateError(PaletteError):
    code = "template_error"
