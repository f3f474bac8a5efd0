"""The operation table: one declaration per operation, and every surface
derived from it agrees.

The parity test runs one deterministic scenario that touches every
declared operation through six deployments: ``PolicyService``, a
two-shard ``ShardedPolicyService``, ``PolicyController``,
``HTTPPolicyClient`` against both REST frontends, and
``InProcessPolicyClient``.
"""

import inspect
import json
import urllib.error
import urllib.request

import pytest

from repro.datacatalog.model import CatalogConfig
from repro.des.core import Environment
from repro.policy import PolicyConfig, PolicyController, PolicyService
from repro.policy import operations
from repro.policy.client import HTTPPolicyClient, InProcessPolicyClient
from repro.policy.operations import (
    IN_PROCESS_ONLY,
    OPERATIONS,
    PolicyRequestError,
    route,
    signature,
)
from repro.policy.rest import PolicyRestServer
from repro.policy.rest_async import AsyncPolicyRestServer
from repro.policy.sharding import ShardedPolicyService

FRONTENDS = [
    pytest.param(PolicyRestServer, id="threaded"),
    pytest.param(AsyncPolicyRestServer, id="async"),
]

BY_NAME = {op.name: op for op in OPERATIONS}


def config(**overrides):
    settings = dict(
        policy="greedy",
        default_streams=4,
        max_streams=50,
        access_control=True,
        catalog=CatalogConfig(site_capacity={"obelix": 1e9}),
    )
    settings.update(overrides)
    return PolicyConfig(**settings)


def service():
    return PolicyService(config(), clock=lambda: 0.0)


def spec(lfn, src="fg-vm", nbytes=1000):
    return {
        "lfn": lfn,
        "src_url": f"gsiftp://{src}/data/{lfn}",
        "dst_url": f"gsiftp://obelix/scratch/{lfn}",
        "nbytes": nbytes,
    }


def url(lfn):
    return f"gsiftp://obelix/scratch/{lfn}"


def scenario(history):
    """(operation, args, kwargs) steps; later steps read ids from the
    results of earlier ones (``history``: step index -> result)."""
    yield "register_tenant", ("t1",), {"weight": 2.0, "max_streams": 8}
    yield "bind_workflow", ("wf1", "t1"), {}
    yield "register_priorities", ("wf1", {"j1": 5}), {}
    yield "set_quota", ("wf1", 1e9), {}
    yield "deny_host", ("evil",), {"reason": "banned"}
    yield "allow_host", ("evil",), {}
    yield "submit_transfers", ("wf1", "j1", [spec("a"), spec("b", src="hotel")]), {}
    tid_a, tid_b = (advice.tid for advice in history[6])
    yield "transfer_state", (tid_a,), {}
    yield "explain", (tid_b,), {}
    yield "explain", (424242,), {}
    yield "staging_state", ("a", url("a")), {}
    yield "complete_transfers", (), {"done": [tid_a], "failed": [tid_b]}
    yield "reconcile_staged", ("wf1", [("c", url("c"), 500.0)]), {}
    yield "catalog_census", (), {}
    yield "catalog_replicas", ("a",), {}
    yield "set_site_capacity", ("obelix", 5e8), {}
    yield "catalog_pin", (url("a"),), {}
    yield "catalog_pin", (url("a"),), {"pinned": False}
    yield "submit_cleanups", ("wf1", "c1", [("a", url("a"))]), {}
    yield "complete_cleanups", ([advice.cid for advice in history[18]],), {}
    yield "tenants", (), {}
    yield "unregister_workflow", ("wf1",), {"retain_staged": True}
    yield "unregister_tenant", ("t1",), {}
    yield "status", (), {}
    yield "metrics_text", (), {}


#: Views over the operations whose answer depends on the deployment: a
#: decision record's ``meta`` names the shard that decided (the digest
#: excludes it), a status snapshot carries deployment-specific sections
#: (shard health, metrics), and metrics text counts each deployment's own
#: traffic.
VIEWS = {
    "explain": lambda record: record and {
        key: value for key, value in record.items() if key != "meta"
    },
    "status": lambda doc: {
        key: doc[key] for key in ("policy", "default_streams", "max_streams", "tenants")
    },
    "metrics_text": lambda text: "# TYPE repro_policy_" in text,
}


def view(name, value):
    return VIEWS.get(name, lambda v: v)(value)


def run_scenario(call):
    """Run the scenario through ``call(name, args, kwargs)``."""
    history = {}
    for index, (name, args, kwargs) in enumerate(scenario(history)):
        history[index] = call(name, args, kwargs)
    return history


def direct(target):
    return lambda name, args, kwargs: getattr(target, name)(*args, **kwargs)


def on_service(target):
    """Call the service method behind each operation (``status`` is
    ``snapshot``)."""
    return lambda name, args, kwargs: getattr(target, BY_NAME[name].service)(
        *args, **kwargs
    )


def request_for(op, args, kwargs):
    """The request ``PolicyController`` takes for a Python-level call."""
    arguments = signature(op).bind(*args, **kwargs).arguments
    if op.method == "POST":
        return (op.encode(arguments),)
    return tuple(arguments.values())


def wire_view(op, doc):
    """What ``HTTPPolicyClient`` returns for a response document."""
    if doc is None and op.missing:
        return None
    return op.reply(json.loads(json.dumps(doc)))


def test_every_operation_agrees_across_all_deployments():
    # Python-level answers: the service, the router, the in-process client.
    plain = run_scenario(on_service(service()))
    sharded = run_scenario(
        on_service(ShardedPolicyService(config(), num_shards=2, clock=lambda: 0.0))
    )
    env = Environment()
    sim = InProcessPolicyClient(service(), env, latency=0.05)

    def simulated(name, args, kwargs):
        process = env.process(getattr(sim, name)(*args, **kwargs))
        env.run()
        return process.value

    in_process = run_scenario(simulated)

    # Wire-level answers: the controller, and HTTP over both frontends.
    steps = list(scenario(plain))
    assert {name for name, _a, _k in steps} == set(BY_NAME)
    controller = PolicyController(service())
    wire = {
        "controller": run_scenario(
            lambda name, args, kwargs: wire_view(
                BY_NAME[name],
                getattr(controller, name)(*request_for(BY_NAME[name], args, kwargs)),
            )
        ),
    }
    for frontend in (PolicyRestServer, AsyncPolicyRestServer):
        with frontend(service()) as server:
            wire[frontend.__name__] = run_scenario(direct(HTTPPolicyClient(server.url)))

    for index, (name, args, kwargs) in enumerate(steps):
        op = BY_NAME[name]
        expected = view(name, plain[index])
        assert view(name, sharded[index]) == expected, (index, name, "sharded")
        assert view(name, in_process[index]) == expected, (index, name, "in-process")
        parsed = op.parse(*request_for(op, args, kwargs))
        expected_wire = view(name, wire_view(op, op.shape(plain[index], *parsed)))
        for deployment, results in wire.items():
            assert view(name, results[index]) == expected_wire, (index, name, deployment)


def test_every_public_service_method_is_declared_or_in_process_only():
    public = {
        name
        for name, member in vars(PolicyService).items()
        if not name.startswith("_")
        and (
            inspect.isfunction(member)
            or isinstance(member, (property, classmethod, staticmethod))
        )
    }
    declared = {op.service for op in OPERATIONS}
    assert not declared & IN_PROCESS_ONLY
    assert public - declared - IN_PROCESS_ONLY == set(), (
        "declare the method in repro.policy.operations.OPERATIONS, "
        "or list it in IN_PROCESS_ONLY"
    )
    assert IN_PROCESS_ONLY <= public
    for op in OPERATIONS:
        assert callable(getattr(ShardedPolicyService, op.service)), op.service
        for surface in (PolicyController, HTTPPolicyClient, InProcessPolicyClient):
            assert callable(getattr(surface, op.name)), (surface, op.name)


def test_endpoint_table_lists_exactly_the_declared_routes():
    lines = operations.__doc__.split("Endpoints\n---------\n", 1)[1].splitlines()
    rule = lines[0]
    assert rule.startswith("====")
    body = lines[1:lines.index(rule, 1)]
    rows = [tuple(line.split(None, 2)) for line in body]
    assert rows == [(op.method, op.path, op.summary) for op in OPERATIONS]


def test_route_resolves_declared_paths_and_path_parameters():
    op, args = route("GET", "/policy/transfers/17")
    assert (op.name, args) == ("transfer_state", (17,))
    op, args = route("GET", "/policy/catalog/replicas/weird%20file%2Bname")
    assert (op.name, args) == ("catalog_replicas", ("weird file+name",))
    assert route("POST", "/policy/transfers")[0].name == "submit_transfers"
    assert route("GET", "/policy/transfers") is None  # POST-only path
    assert route("POST", "/policy/status") is None  # GET-only path
    assert route("PUT", "/policy/status") is None
    with pytest.raises(PolicyRequestError, match="integer"):
        route("GET", "/policy/explain/abc")


def post_raw(base_url, path, body):
    request = urllib.request.Request(
        f"{base_url}{path}",
        data=body.encode(),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    try:
        with urllib.request.urlopen(request, timeout=5) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


@pytest.mark.parametrize("frontend", FRONTENDS)
@pytest.mark.parametrize(
    "field, value",
    [("nbytes", "NaN"), ("nbytes", "Infinity"), ("nbytes", "true"), ("streams", "true")],
)
def test_non_finite_transfer_sizes_are_http_400(frontend, field, value):
    svc = PolicyService(config(catalog=None))
    svc.set_quota("wf", 100.0)
    item = (
        '{"lfn": "f", "src_url": "gsiftp://fg-vm/data/f", '
        f'"dst_url": "gsiftp://obelix/scratch/f", "{field}": {value}}}'
    )
    body = f'{{"workflow": "wf", "job": "j", "transfers": [{item}]}}'
    with frontend(svc) as server:
        status, doc = post_raw(server.url, "/policy/transfers", body)
        assert status == 400
        assert field in doc["error"]
        # A finite size over the quota is still denied, not rejected.
        client = HTTPPolicyClient(server.url)
        advice = client.submit_transfers("wf", "j", [spec("g", nbytes=200)])
        assert advice[0].action == "deny"


@pytest.mark.parametrize("frontend", FRONTENDS)
def test_http_unregister_can_retain_staged_files(frontend):
    with frontend(PolicyService(config(access_control=False, catalog=None))) as server:
        client = HTTPPolicyClient(server.url)
        for workflow, lfn in (("kept", "k"), ("dropped", "d")):
            advice = client.submit_transfers(workflow, "j", [spec(lfn)])
            client.complete_transfers(done=[advice[0].tid])
        client.unregister_workflow("kept", retain_staged=True)
        client.unregister_workflow("dropped")
        assert client.staging_state("k", url("k")) == "staged"
        assert client.staging_state("d", url("d")) == "unknown"
