"""Window-level request handling: rank a batch of requests and embed in turn."""

from __future__ import annotations

from dataclasses import dataclass

from .embedder import Coefficients, Embedding, EmbeddingError, embed
from .metrics import revenue
from .netmodel import SchemaError, SubstrateNetwork, VirtualRequest, left_sum


def request_quality_revenue(request: VirtualRequest,
                            coeffs: Coefficients) -> float:
    """Whole-request revenue plus the summed channel quality term."""
    return revenue(request, coeffs) + coeffs.gamma * left_sum(
        c.min_pdr / c.max_delay for c in request.channels)


@dataclass
class RequestOutcome:
    """Result of one embedding attempt within a window: an embedding or an
    error, exactly one of them, or a SchemaError naming ``embedding``."""

    request: VirtualRequest
    embedding: Embedding = None
    error: EmbeddingError = None   # why a blocked request was blocked

    def __post_init__(self):
        if (self.embedding is None) == (self.error is None):
            raise SchemaError("embedding", "expected an embedding or an error, "
                              "not both or neither")

    @property
    def accepted(self) -> bool:
        return self.error is None


def process_window(net: SubstrateNetwork, requests,
                   coeffs: Coefficients) -> list[RequestOutcome]:
    """Embed a window of requests in descending quality-revenue order and
    return their outcomes in that order.

    Blocked requests are rolled back inside embed() and leave no trace on the
    substrate, so later requests see only the accepted reservations.
    """
    ranked = sorted(requests,
                    key=lambda r: -request_quality_revenue(r, coeffs))
    outcomes = []
    for request in ranked:
        try:
            embedding = embed(net, request, coeffs)
        except EmbeddingError as exc:
            # without its traceback the error keeps no frame of embed alive
            outcomes.append(RequestOutcome(request, error=exc.with_traceback(None)))
        else:
            outcomes.append(RequestOutcome(request, embedding))
    return outcomes
