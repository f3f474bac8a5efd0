"""Every Policy Service operation, declared once.

Each :class:`Operation` names one service method and gives its HTTP
method and path, the payload parser that validates a request into the
method's arguments, the shaping of the result into the response
document, and how the shard router spreads the call.  Everything that
speaks the operation is derived from :data:`OPERATIONS` when its module
is imported:

* :class:`~repro.policy.controller.PolicyController` dispatch;
* :func:`route`, the one route table both REST frontends
  (:mod:`repro.policy.rest`, :mod:`repro.policy.rest_async`) look
  requests up in;
* the broadcast and fan-out methods of
  :class:`~repro.policy.sharding.router.ShardedPolicyService`;
* every per-operation method of
  :class:`~repro.policy.client.HTTPPolicyClient` and
  :class:`~repro.policy.client.InProcessPolicyClient`.

Adding an operation is one declaration here plus the service method.

Endpoints
---------
==========  ===================================  ===========================
POST        /policy/transfers                    submit transfer batch
POST        /policy/transfers/complete           report done/failed ids
GET         /policy/transfers/<tid>              one transfer's state
GET         /policy/explain/<tid>                decision-provenance record
POST        /policy/staging                      staged-state of (lfn, url)
POST        /policy/cleanups                     submit cleanup batch
POST        /policy/cleanups/complete            report finished cleanups
POST        /policy/staged/reconcile             adopt degraded-mode staging
POST        /policy/priorities                   register job priorities
POST        /policy/workflows/unregister         drop a workflow's interest
POST        /policy/denials                      ban a host (access control)
POST        /policy/denials/remove               lift a host ban
POST        /policy/quotas                       set a workflow's byte quota
POST        /policy/tenants                      register/replace a tenant
POST        /policy/tenants/remove               unregister a tenant
POST        /policy/tenants/bind                 bind a workflow to a tenant
GET         /policy/tenants                      tenant census + ledgers
GET         /policy/catalog                      staged-data catalog census
GET         /policy/catalog/replicas/<lfn>       one dataset's replicas
POST        /policy/catalog/sites                set/lift a site byte budget
POST        /policy/catalog/pins                 pin/unpin a replica by url
GET         /policy/status                       service snapshot
GET         /policy/metrics                      Prometheus text exposition
==========  ===================================  ===========================

Malformed payloads and path parameters answer 400 with ``{"error": ...}``,
unknown paths 404, and ``GET /policy/explain/<tid>`` for a transfer with
no decision record 404.  Transport errors (408, 413, 503) belong to the
frontends.
"""

from __future__ import annotations

import inspect
import json
import math
from dataclasses import dataclass
from typing import Any, Callable, Optional
from urllib.parse import unquote

from repro.policy.model import CleanupAdvice, TransferAdvice
from repro.policy.service import PolicyService

__all__ = [
    "IN_PROCESS_ONLY",
    "OPERATIONS",
    "Operation",
    "PolicyRequestError",
    "install",
    "listed",
    "respond",
    "route",
    "signature",
]


class PolicyRequestError(ValueError):
    """A malformed request payload (maps to HTTP 400)."""


# -- validation ---------------------------------------------------------------
def _object(payload: Any) -> dict:
    if not isinstance(payload, dict):
        raise PolicyRequestError(f"payload must be an object, got {type(payload).__name__}")
    return payload


def _require(payload: dict, key: str, types: tuple = (str,)) -> Any:
    if key not in _object(payload):
        raise PolicyRequestError(f"missing required field {key!r}")
    value = payload[key]
    if not isinstance(value, types):
        raise PolicyRequestError(
            f"field {key!r} must be {'/'.join(t.__name__ for t in types)}, "
            f"got {type(value).__name__}"
        )
    return value


def _finite_nonneg(value: float, name: str) -> float:
    """Reject NaN/inf byte counts: ``json.loads`` happily parses ``NaN`` and
    ``Infinity``, and ``NaN < 0`` is False — so a plain ``< 0`` guard lets
    a poisoned quota into policy memory."""
    if isinstance(value, bool) or not math.isfinite(value) or value < 0:
        raise PolicyRequestError(f"{name} must be a finite number >= 0")
    return float(value)


def _optional_bytes(value: Any, name: str) -> Optional[float]:
    """A byte count that may be null (= no limit)."""
    if value is None:
        return None
    if not isinstance(value, (int, float)):
        raise PolicyRequestError(f"{name} must be a number or null")
    return _finite_nonneg(value, name)


def _tid(tid: Any) -> tuple:
    if not isinstance(tid, int):
        raise PolicyRequestError("transfer id must be an integer")
    return (tid,)


def _no_request() -> tuple:
    return ()


# -- payload parsers: request -> positional service arguments ----------------
def _parse_submit_transfers(payload: dict) -> tuple:
    workflow = _require(payload, "workflow")
    job = _require(payload, "job")
    transfers = _require(payload, "transfers", (list,))
    for idx, item in enumerate(transfers):
        if not isinstance(item, dict):
            raise PolicyRequestError(f"transfers[{idx}] must be an object")
        for field in ("lfn", "src_url", "dst_url"):
            _require(item, field)
        nbytes, name = item.get("nbytes", 0), f"transfers[{idx}].nbytes"
        if not isinstance(nbytes, (int, float)):
            raise PolicyRequestError(f"{name} must be a finite number >= 0")
        _finite_nonneg(nbytes, name)
        streams = item.get("streams")
        if streams is not None and (
            not isinstance(streams, int) or isinstance(streams, bool) or streams < 1
        ):
            raise PolicyRequestError(f"transfers[{idx}].streams must be int >= 1")
    return workflow, job, transfers


def _parse_complete_transfers(payload: dict) -> tuple:
    payload = _object(payload)
    done = payload.get("done", [])
    failed = payload.get("failed", [])
    for name, ids in (("done", done), ("failed", failed)):
        if not isinstance(ids, list) or not all(isinstance(i, int) for i in ids):
            raise PolicyRequestError(f"field {name!r} must be a list of transfer ids")
    return done, failed


def _parse_submit_cleanups(payload: dict) -> tuple:
    workflow = _require(payload, "workflow")
    job = _require(payload, "job")
    files = _require(payload, "files", (list,))
    pairs = []
    for idx, item in enumerate(files):
        if not isinstance(item, dict):
            raise PolicyRequestError(f"files[{idx}] must be an object")
        pairs.append((_require(item, "lfn"), _require(item, "url")))
    return workflow, job, pairs


def _parse_complete_cleanups(payload: dict) -> tuple:
    ids = _require(payload, "ids", (list,))
    if not all(isinstance(i, int) for i in ids):
        raise PolicyRequestError("field 'ids' must be a list of cleanup ids")
    return (ids,)


def _parse_reconcile_staged(payload: dict) -> tuple:
    workflow = _require(payload, "workflow")
    files = _require(payload, "files", (list,))
    entries = []
    for idx, item in enumerate(files):
        if not isinstance(item, dict):
            raise PolicyRequestError(f"files[{idx}] must be an object")
        entry = [_require(item, "lfn"), _require(item, "url")]
        nbytes = item.get("nbytes")
        if nbytes is not None:
            if not isinstance(nbytes, (int, float)):
                raise PolicyRequestError(f"files[{idx}].nbytes must be a number")
            entry.append(_finite_nonneg(nbytes, f"files[{idx}].nbytes"))
        entries.append(tuple(entry))
    return workflow, entries


def _parse_catalog_replicas(lfn: Any) -> tuple:
    if not isinstance(lfn, str) or not lfn:
        raise PolicyRequestError("lfn must be a non-empty string")
    return (lfn,)


def _parse_set_site_capacity(payload: dict) -> tuple:
    site = _require(payload, "site")
    if not site:
        raise PolicyRequestError("site must be a non-empty string")
    capacity = _optional_bytes(payload.get("capacity_bytes"), "capacity_bytes")
    return site, capacity


def _parse_catalog_pin(payload: dict) -> tuple:
    url = _require(payload, "url")
    pinned = payload.get("pinned", True)
    if not isinstance(pinned, bool):
        raise PolicyRequestError("pinned must be a boolean")
    return url, pinned


def _parse_deny_host(payload: dict) -> tuple:
    host = _require(payload, "host")
    direction = payload.get("direction", "any")
    if direction not in ("src", "dst", "any"):
        raise PolicyRequestError("direction must be src/dst/any")
    return host, direction, payload.get("reason", "")


def _parse_set_quota(payload: dict) -> tuple:
    workflow = _require(payload, "workflow")
    max_bytes = _finite_nonneg(_require(payload, "max_bytes", (int, float)), "max_bytes")
    return workflow, max_bytes


def _parse_register_tenant(payload: dict) -> tuple:
    tenant = _require(payload, "tenant")
    if not tenant:
        raise PolicyRequestError("tenant must be a non-empty string")
    weight = payload.get("weight", 1.0)
    if not isinstance(weight, (int, float)) or isinstance(weight, bool) \
            or not math.isfinite(weight) or weight <= 0:
        raise PolicyRequestError("weight must be a finite number > 0")
    priority_class = payload.get("priority_class", 0)
    if not isinstance(priority_class, int) or isinstance(priority_class, bool):
        raise PolicyRequestError("priority_class must be an integer")
    max_bytes = _optional_bytes(payload.get("max_bytes"), "max_bytes")
    caps = []
    for name in ("max_streams", "max_concurrent"):
        value = payload.get(name)
        if value is not None and (
            not isinstance(value, int) or isinstance(value, bool) or value < 1
        ):
            raise PolicyRequestError(f"{name} must be an integer >= 1 or null")
        caps.append(value)
    return (tenant, float(weight), priority_class, max_bytes, *caps)


def _parse_register_priorities(payload: dict) -> tuple:
    workflow = _require(payload, "workflow")
    priorities = _require(payload, "priorities", (dict,))
    for job, value in priorities.items():
        if not isinstance(value, int):
            raise PolicyRequestError(f"priority for {job!r} must be an integer")
    return workflow, priorities


def _parse_unregister_workflow(payload: dict) -> tuple:
    workflow = _require(payload, "workflow")
    retain = payload.get("retain_staged", False)
    if not isinstance(retain, bool):
        raise PolicyRequestError("retain_staged must be a boolean")
    return workflow, retain


def _keys(*names: str) -> Callable[[dict], tuple]:
    """Parser for a payload of required string fields, in order."""
    return lambda payload: tuple(_require(payload, name) for name in names)


# -- response shaping: (service result, *arguments) -> response document -----
def _result(result: Any, *_args: Any) -> Any:
    return result


def _advice(result: list, workflow: str, job: str, _items: list) -> dict:
    return {"workflow": workflow, "job": job, "advice": [a.to_dict() for a in result]}


# -- client side --------------------------------------------------------------
def listed(value: Any) -> Any:
    """Materialise a batch argument (any iterable but a str or a dict)."""
    if isinstance(value, (str, bytes, dict)) or not hasattr(value, "__iter__"):
        return value
    return list(value)


def _fields(arguments: dict) -> dict:
    """Default request encoder: the payload fields are the argument names."""
    return {name: listed(value) for name, value in arguments.items()}


def _field(name: str) -> Callable[[dict], Any]:
    """A reply picking one field out of the response document."""
    return lambda doc: doc[name]


def _encode_files(arguments: dict) -> dict:
    """Encoder for ``files`` of (lfn, url) or (lfn, url, nbytes) tuples."""
    payload = _fields(arguments)
    docs = []
    for lfn, url, *rest in payload["files"]:
        doc = {"lfn": lfn, "url": url}
        if rest:
            doc["nbytes"] = rest[0]
        docs.append(doc)
    payload["files"] = docs
    return payload


@dataclass(frozen=True)
class Operation:
    """One operation of the Policy Service.

    ``parse`` turns a request -- the JSON payload of a POST, the path
    parameter of a parameterised GET, nothing for a plain GET -- into the
    positional arguments of the service method ``service`` (default:
    ``name``); a service exception listed in ``errors`` becomes a 400.
    ``shape(result, *arguments)`` builds the response document, and
    ``reply`` picks :class:`~repro.policy.client.HTTPPolicyClient`'s
    return value out of it.  ``encode`` is ``parse``'s client-side inverse:
    the bound call arguments to the payload.

    ``shard`` says how the router spreads the call: ``"broadcast"`` (every
    shard, buffered for dead ones), ``"fanout"`` (every live shard), each
    with the router's merge named ``merge``; or ``"custom"`` for calls
    with their own router method (partitioned batches, owner lookups).
    """

    name: str
    method: str
    path: str
    summary: str
    parse: Callable[..., tuple]
    service: str = ""
    shape: Callable[..., Any] = _result
    reply: Callable[[Any], Any] = _result
    encode: Callable[[dict], Any] = _fields
    errors: tuple[type[Exception], ...] = ()
    shard: str = "custom"
    merge: str = ""
    #: 404 message (formatted with the path parameter) for a None result
    missing: str = ""
    #: the response is Prometheus text, not a JSON document
    text: bool = False

    def __post_init__(self) -> None:
        if not self.service:
            object.__setattr__(self, "service", self.name)

    @property
    def prefix(self) -> str:
        """The path before its ``<parameter>`` ('' for a path without one)."""
        return self.path.partition("<")[0] if "<" in self.path else ""


OPERATIONS: tuple[Operation, ...] = (
    Operation(
        "submit_transfers", "POST", "/policy/transfers", "submit transfer batch",
        _parse_submit_transfers, shape=_advice,
        reply=lambda doc: [TransferAdvice.from_dict(a) for a in doc["advice"]],
    ),
    Operation(
        "complete_transfers", "POST", "/policy/transfers/complete",
        "report done/failed ids", _parse_complete_transfers,
    ),
    Operation(
        "transfer_state", "GET", "/policy/transfers/<tid>", "one transfer's state",
        _tid, shape=lambda state, tid: {"tid": tid, "state": state},
        reply=_field("state"),
    ),
    Operation(
        "explain", "GET", "/policy/explain/<tid>", "decision-provenance record",
        _tid, missing="no decision record for transfer {}",
    ),
    Operation(
        "staging_state", "POST", "/policy/staging", "staged-state of (lfn, url)",
        _keys("lfn", "url"),
        shape=lambda state, lfn, url: {"lfn": lfn, "url": url, "state": state},
        reply=_field("state"),
        encode=lambda a: {"lfn": a["lfn"], "url": a["dst_url"]},
    ),
    Operation(
        "submit_cleanups", "POST", "/policy/cleanups", "submit cleanup batch",
        _parse_submit_cleanups, shape=_advice,
        reply=lambda doc: [CleanupAdvice.from_dict(a) for a in doc["advice"]],
        encode=_encode_files,
    ),
    Operation(
        "complete_cleanups", "POST", "/policy/cleanups/complete",
        "report finished cleanups", _parse_complete_cleanups,
    ),
    Operation(
        "reconcile_staged", "POST", "/policy/staged/reconcile",
        "adopt degraded-mode staging", _parse_reconcile_staged, encode=_encode_files,
    ),
    Operation(
        "register_priorities", "POST", "/policy/priorities", "register job priorities",
        _parse_register_priorities,
        shape=lambda count, workflow, _p: {"workflow": workflow, "registered": count},
        shard="broadcast", merge="count",
    ),
    Operation(
        "unregister_workflow", "POST", "/policy/workflows/unregister",
        "drop a workflow's interest", _parse_unregister_workflow,
        shape=lambda _r, workflow, _retain: {
            "workflow": workflow, "unregistered": True,
        },
    ),
    Operation(
        "deny_host", "POST", "/policy/denials", "ban a host (access control)",
        _parse_deny_host, errors=(RuntimeError,),
        shape=lambda _r, host, direction, _reason: {
            "host": host, "direction": direction, "denied": True,
        },
        shard="broadcast", merge="first",
    ),
    Operation(
        "allow_host", "POST", "/policy/denials/remove", "lift a host ban",
        _keys("host"), shape=lambda removed, host: {"host": host, "removed": removed},
        shard="broadcast", merge="count",
    ),
    Operation(
        "set_quota", "POST", "/policy/quotas", "set a workflow's byte quota",
        _parse_set_quota, errors=(RuntimeError,),
        shape=lambda _r, workflow, max_bytes: {
            "workflow": workflow, "max_bytes": max_bytes,
        },
        shard="broadcast", merge="first",
    ),
    Operation(
        "register_tenant", "POST", "/policy/tenants", "register/replace a tenant",
        _parse_register_tenant,
        shape=lambda _r, tenant, *_spec: {"tenant": tenant, "registered": True},
        shard="broadcast", merge="first",
    ),
    Operation(
        "unregister_tenant", "POST", "/policy/tenants/remove", "unregister a tenant",
        _keys("tenant"),
        shape=lambda removed, tenant: {"tenant": tenant, "removed": removed},
        shard="broadcast", merge="count",
    ),
    Operation(
        "bind_workflow", "POST", "/policy/tenants/bind", "bind a workflow to a tenant",
        _keys("workflow", "tenant"), errors=(RuntimeError,),
        shape=lambda _r, workflow, tenant: {
            "workflow": workflow, "tenant": tenant, "bound": True,
        },
        shard="broadcast", merge="first",
    ),
    Operation(
        "tenants", "GET", "/policy/tenants", "tenant census + ledgers", _no_request,
        shape=lambda rows: {"tenants": rows}, reply=_field("tenants"),
        shard="fanout", merge="tenants",
    ),
    Operation(
        "catalog_census", "GET", "/policy/catalog", "staged-data catalog census",
        _no_request, errors=(RuntimeError,), shard="fanout", merge="census",
    ),
    Operation(
        "catalog_replicas", "GET", "/policy/catalog/replicas/<lfn>",
        "one dataset's replicas", _parse_catalog_replicas, errors=(RuntimeError,),
        shape=lambda rows, lfn: {"lfn": lfn, "replicas": rows},
        reply=_field("replicas"), shard="fanout", merge="replicas",
    ),
    Operation(
        "set_site_capacity", "POST", "/policy/catalog/sites",
        "set/lift a site byte budget", _parse_set_site_capacity, errors=(RuntimeError,),
    ),
    Operation(
        "catalog_pin", "POST", "/policy/catalog/pins", "pin/unpin a replica by url",
        _parse_catalog_pin, errors=(RuntimeError, KeyError),
    ),
    Operation(
        "status", "GET", "/policy/status", "service snapshot", _no_request,
        service="snapshot",
    ),
    Operation(
        "metrics_text", "GET", "/policy/metrics", "Prometheus text exposition",
        _no_request, text=True,
    ),
)

#: Public service methods that are deliberately not operations: the
#: process that owns the service calls them directly (durability,
#: housekeeping, introspection), so they have no route and no client stub.
IN_PROCESS_ONLY = frozenset({
    "attach_journal",  # durability wiring at construction
    "recover",  # journal replay after a crash
    "reap_expired",  # lease sweep, driven by the simulation clock
    "explain_cleanup",  # cleanup provenance, read from trace artifacts
    "decision_records",  # whole decision log, exported by `repro trace`
    "profile_report",  # rule profiler text, exported by `repro trace`
    "counters",  # id counters, part of `status`
    "config_fingerprint",  # journal compatibility check
    "stats",  # legacy flat counters, part of `status`
})


# -- route table --------------------------------------------------------------
def _path_tid(text: str) -> int:
    if not text.isdigit():
        raise PolicyRequestError("transfer id must be an integer")
    return int(text)


_PATH_PARAMS: dict[str, Callable[[str], Any]] = {"<tid>": _path_tid, "<lfn>": unquote}

_EXACT: dict[tuple[str, str], Operation] = {
    (op.method, op.path): op for op in OPERATIONS if not op.prefix
}
_PREFIXED: tuple[tuple[str, str, Operation, Callable[[str], Any]], ...] = tuple(
    (op.method, op.prefix, op, _PATH_PARAMS[op.path[len(op.prefix):]])
    for op in OPERATIONS
    if op.prefix
)


def route(method: str, path: str) -> Optional[tuple[Operation, tuple]]:
    """The operation serving ``method path`` and its path arguments.

    None for an unknown route; a malformed path parameter raises
    :exc:`PolicyRequestError`.  The parameter is the last path segment.
    """
    op = _EXACT.get((method, path))
    if op is not None:
        return op, ()
    for op_method, prefix, op, convert in _PREFIXED:
        if op_method == method and path.startswith(prefix):
            return op, (convert(path.rsplit("/", 1)[-1]),)
    return None


_JSON_TYPE = "application/json"
_PROMETHEUS_TYPE = "text/plain; version=0.0.4; charset=utf-8"


def respond(
    op: Operation, result: Any, path: str, request_id: str
) -> tuple[int, bytes, str]:
    """(status, body, content type) answering ``op`` with ``result``."""
    if op.text:
        return 200, result.encode(), _PROMETHEUS_TYPE
    if result is None and op.missing:
        error = op.missing.format(path.rsplit("/", 1)[-1])
        doc = {"error": error, "request_id": request_id}
        return 404, json.dumps(doc).encode(), _JSON_TYPE
    return 200, json.dumps(result).encode(), _JSON_TYPE


# -- derivation helpers -------------------------------------------------------
def signature(op: Operation) -> inspect.Signature:
    """The Python call signature of ``op``: the service method's, without
    ``self``, keyword-only parameters (the ids the shard router assigns)
    and the return annotation."""
    params = inspect.signature(getattr(PolicyService, op.service)).parameters.values()
    return inspect.Signature([
        p for p in list(params)[1:] if p.kind is not inspect.Parameter.KEYWORD_ONLY
    ])


def install(
    cls: type,
    op: Operation,
    function: Any,
    sig: Optional[inspect.Signature] = None,
    name: str = "",
) -> None:
    """Attach ``function`` to ``cls`` as the method for ``op``, named
    ``name`` (default: the operation's name)."""
    name = name or op.name
    function.__name__ = name
    function.__qualname__ = f"{cls.__name__}.{name}"
    function.__doc__ = f"``{op.method} {op.path}``: {op.summary}."
    if sig is not None:
        self_param = inspect.Parameter("self", inspect.Parameter.POSITIONAL_OR_KEYWORD)
        function.__signature__ = sig.replace(
            parameters=[self_param, *sig.parameters.values()]
        )
    setattr(cls, name, function)
