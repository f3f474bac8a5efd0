"""The Policy Controller: request validation and translation.

In the paper's architecture the Policy Controller "manages communication
between the web interface and the policy engine".  Here it is the layer
that accepts JSON-able dict payloads (from the REST frontend or any other
transport), validates them, delegates to :class:`PolicyService`, and
returns JSON-able dict responses.

Its methods are derived from :data:`~repro.policy.operations.OPERATIONS`:
one per operation, taking the request (the payload of a POST, the path
parameter of a parameterised GET, nothing otherwise).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.policy.operations import OPERATIONS, Operation, PolicyRequestError, install
from repro.policy.service import PolicyService

__all__ = ["PolicyController", "PolicyRequestError"]


class PolicyController:
    """Dict-in / dict-out facade over a :class:`PolicyService`."""

    def __init__(self, service: PolicyService):
        self.service = service

    if TYPE_CHECKING:  # the operation methods are installed below
        def __getattr__(self, name: str) -> Any: ...


def _dispatch(op: Operation):
    parse, shape, service_method, errors = op.parse, op.shape, op.service, op.errors

    def method(self: PolicyController, *request: Any) -> Any:
        args = parse(*request)
        try:
            result = getattr(self.service, service_method)(*args)
        except errors as exc:
            message = exc.args[0] if exc.args else str(exc)
            raise PolicyRequestError(str(message)) from exc
        return shape(result, *args)

    return method


for _op in OPERATIONS:
    install(PolicyController, _op, _dispatch(_op))
