"""Shared exception types, and how a limit's message states a count."""

# a count that passed a limit is worked out, and stated, up to this size or
# up to the limit when that is larger; past it a message gives the bound
COUNT_SHOWN_MAX = 10 ** 18


def count_bound(limit: int) -> int:
    return max(limit, COUNT_SHOWN_MAX)


def count_text(count: int, limit: int) -> str:
    """count as a message about passing limit states it: in full up to
    count_bound(limit), else as over that bound, so that no message
    formats an integer too long to print or a count nobody worked out."""
    bound = count_bound(limit)
    return str(count) if count <= bound else f"over {bound}"


class BudgetExceededError(Exception):
    """A search or enumeration exceeded its configured work budget."""


class PipelineIntegrityError(Exception):
    """A reduction pipeline produced structurally impossible output.

    Raised e.g. when an exact division that must yield integer coefficients
    does not, which signals a mis-built gadget rather than a user error.
    """
