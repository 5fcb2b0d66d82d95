"""Window-level request handling: rank a batch of requests and embed in turn."""

from __future__ import annotations

from dataclasses import dataclass

from .embedder import Coefficients, Embedding, EmbeddingError, embed
from .metrics import revenue
from .netmodel import SchemaError, SubstrateNetwork, VirtualRequest, left_sum


def request_quality_revenue(request: VirtualRequest,
                            coeffs: Coefficients) -> float:
    """Whole-request revenue plus the summed channel quality term.

    The quality term is ``gamma * (min_pdr / max_delay)`` for one channel and
    gamma times the left-to-right sum of ``min_pdr / max_delay`` for several.
    This is the one revenue formula: a channel pair is scored as the request
    of that pair (``embedder.pair_quality_revenue``).
    """
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


def ranking_keys(requests, coeffs: Coefficients) -> list[float]:
    """Each request's ranking key, its negated quality revenue, in request order."""
    return [-request_quality_revenue(r, coeffs) for r in requests]


def rank_window(requests: list, keys: list) -> list:
    """The requests in ascending key order; ties keep arrival order.

    ``keys[i]`` is the key of ``requests[i]``, and may run past the window,
    so one scoring of a pool ranks every prefix of it as a sort of that
    prefix alone would, bit for bit and NaN keys included.
    """
    return [requests[i] for i in sorted(range(len(requests)), key=keys.__getitem__)]


def embed_ranked(net: SubstrateNetwork, ranked,
                 coeffs: Coefficients) -> list[RequestOutcome]:
    """Embed the requests in the order given and return their outcomes in it.

    Blocked requests are rolled back inside embed() and leave no trace on the
    substrate, so later requests see only the accepted reservations.
    """
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


def process_window(net: SubstrateNetwork, requests,
                   coeffs: Coefficients) -> list[RequestOutcome]:
    """Embed a window of requests in descending quality-revenue order, ties
    in arrival order, and return their outcomes in that order."""
    requests = list(requests)
    return embed_ranked(net, rank_window(requests, ranking_keys(requests, coeffs)),
                        coeffs)
