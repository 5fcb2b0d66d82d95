import contextlib
import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import textwrap
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anypath_vne import cli, scenario
from anypath_vne.netmodel import SchemaError, substrate_to_dict
from anypath_vne.scenario import example_fixture


@pytest.fixture
def example_files(tmp_path):
    net, request, _ = example_fixture()
    substrate = tmp_path / "substrate.json"
    substrate.write_text(json.dumps(substrate_to_dict(net)))
    request_doc = {
        "id": "example",
        "services": [
            {"id": s.id, "cpu": s.cpu, "gpu": s.gpu, "mem": s.mem}
            for s in request.services.values()
        ],
        "channels": [
            {"id": c.id, "src": c.src, "dst": c.dst, "bw": c.bw,
             "max_delay": c.max_delay, "min_pdr": c.min_pdr}
            for c in request.channels
        ],
    }
    request_file = tmp_path / "request.json"
    request_file.write_text(json.dumps(request_doc))
    coeffs_file = tmp_path / "coeffs.json"
    coeffs_file.write_text(json.dumps({"alpha": 1, "beta": 1, "gamma": 500}))
    return substrate, request_file, coeffs_file


def test_example_command(capsys):
    assert cli.main(["example"]) == cli.EXIT_OK
    out = capsys.readouterr().out
    for line in ("s1 -> n1", "s2 -> n4", "s3 -> n5"):
        assert line in out
    assert "l1,l2,l3,l4" in out


def test_validate_clean_substrate(example_files):
    substrate, _, _ = example_files
    assert cli.main(["validate", "--substrate", str(substrate)]) == cli.EXIT_OK


def test_validate_dirty_substrate(tmp_path, capsys):
    doc = {"nodes": [{"id": "n1", "cpu": 1, "gpu": 1, "mem": 1}],
           "links": [{"id": "l1", "a": "n1", "b": "n9", "bw": 1,
                      "delay": 1.0, "pdr": 0.9}]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["validate", "--substrate", str(path)]) == cli.EXIT_INPUT
    out = capsys.readouterr().out
    assert "l1" in out and "n9" in out
    # a value out of range is refused while loading, before any cross check
    doc["links"][0]["pdr"] = 2.0
    path.write_text(json.dumps(doc))
    assert cli.main(["validate", "--substrate", str(path)]) == cli.EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["field"] == "links[0].pdr"


def test_embed_command_accepts(example_files, capsys):
    substrate, request_file, coeffs = example_files
    code = cli.main(["embed", "--substrate", str(substrate),
                     "--request", str(request_file), "--coeffs", str(coeffs)])
    assert code == cli.EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["services"] == {"s1": "n1", "s2": "n4", "s3": "n5"}
    routes = {c["id"]: c["links"] for c in doc["channels"]}
    assert routes["c3"] == ["l4", "l5", "l6"]


def test_embed_command_blocked_names_service(example_files, tmp_path, capsys):
    substrate, _, _ = example_files
    doc = {"services": [{"id": "s1", "cpu": 10_000, "gpu": 0, "mem": 0}],
           "channels": []}
    request_file = tmp_path / "huge.json"
    request_file.write_text(json.dumps(doc))
    code = cli.main(["embed", "--substrate", str(substrate),
                     "--request", str(request_file)])
    assert code == cli.EXIT_BLOCKED
    detail = json.loads(capsys.readouterr().out)
    assert detail["service"] == "s1"


def test_embed_command_schema_error(example_files, tmp_path, capsys):
    substrate, _, _ = example_files
    bad = tmp_path / "bad_request.json"
    bad.write_text(json.dumps({"services": [{"id": "s1"}], "channels": []}))
    code = cli.main(["embed", "--substrate", str(substrate),
                     "--request", str(bad)])
    assert code == cli.EXIT_INPUT
    detail = json.loads(capsys.readouterr().err)
    assert detail["field"] == "services[0].cpu"


def test_malformed_json_is_input_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert cli.main(["validate", "--substrate", str(path)]) == cli.EXIT_INPUT
    assert "broken.json" in json.loads(capsys.readouterr().err)["error"]


def test_oversized_integer_literal_is_input_error(example_files):
    substrate, request_file, _ = example_files
    text = substrate.read_text()
    substrate.write_text(text.replace('"delay": 10.0', '"delay": 1' + "0" * 5000, 1))
    detail = _assert_input_error(_run_cli("validate", "--substrate", str(substrate)))
    assert detail["field"] == "substrate"


@pytest.mark.parametrize("command", ["validate", "embed", "simulate"])
def test_deeply_nested_json_is_input_error(example_files, tmp_path, command):
    substrate, request_file, _ = example_files
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200_000)
    argv, field = {
        "validate": (["validate", "--substrate", str(deep)], "substrate"),
        "embed": (["embed", "--substrate", str(substrate), "--request", str(deep)],
                  "request"),
        "simulate": (["simulate", "--config", str(deep), "--out",
                      str(tmp_path / "out")], "config"),
    }[command]
    detail = _assert_input_error(_run_cli(*argv))
    assert detail["field"] == field
    assert "deep.json" in detail["error"]
    assert not (tmp_path / "out").exists()


def test_simulate_out_that_cannot_be_a_directory_fails_before_the_sweep(
        tmp_path, monkeypatch, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")

    def sweep(cfg):
        raise AssertionError("the sweep ran before the output directory was made")

    monkeypatch.setattr(cli.scenario, "run_simulation", sweep)
    for out in (blocker / "sub", blocker):
        assert cli.main(["simulate", "--out", str(out)]) == cli.EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        detail = json.loads(lines[0])
        assert detail["field"] == "out"
        assert str(out) in detail["error"]
    assert blocker.read_text() == ""


def test_unknown_flag_is_input_error(capsys):
    assert cli.main(["simulate", "--bogus"]) == cli.EXIT_INPUT


def _run_cli(*argv):
    """Run the CLI in a fresh interpreter, as a shell user would."""
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    return subprocess.run([sys.executable, "-m", "anypath_vne.cli", *argv],
                          capture_output=True, text=True, env=env)


def _assert_input_error(proc) -> dict:
    assert proc.returncode == cli.EXIT_INPUT
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1
    detail = json.loads(lines[0])
    assert set(detail) == {"error", "field"}
    return detail


@pytest.mark.parametrize("config", [
    {"generator": {"bogus": 1}},
    {"coefficients": {"beta": "x"}},
    {"loads": [0]},
    {"loads": []},
    {"generator": {"services_max": 1}},
    {"loads": [2.5]},
    {"seed": -1},
    {"generator": {"channel_prob": "x"}},
    {"generator": {"delay_min": 0, "delay_max": 0}},
    {"iterations": 1.5},
    {"seed": 1.5},
    {"loads": [True]},
    # cases that would run if accepted: one iteration keeps them short
    {"iterations": 1, "coefficients": {"beta": "inf"}},
    {"iterations": 1, "coefficients": {"gamma": "nan"}},
    {"iterations": 1, "coefficients": {"beta": math.inf}},
    {"iterations": 1, "coefficients": {"gamma": math.nan}},
    {"iterations": 1, "coefficients": {"cost_beta": True}},
    {"iterations": 1, "coefficients": {"alpha": {"cpu": 1, "gpu": "3", "mem": 1}}},
    {"iterations": 1, "generator": {"delay_max": math.inf}},
    {"iterations": 1, "generator": {"cpu_max": 1.5}},
    {"iterations": 1, "generator": {"ordered_pairs": "yes"}},
    {"iterations": 1, "generator": {"delay_max": 10**30}},
    {"iterations": 1, "generator": {"cpu_max": 10**21}},
    {"iterations": 1, "generator": {"services_max": 10**6}},
    {"iterations": 1, "loads": [10**21]},
    {"iterations": 1, "loads": [10, 10_001]},
    {"iterations": 10**21},
])
def test_simulate_bad_config_is_input_error(tmp_path, config):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    _assert_input_error(_run_cli("simulate", "--config", str(path),
                                 "--out", str(tmp_path / "out")))
    assert not (tmp_path / "out").exists()


def test_simulate_config_bounds_name_the_field():
    # a bad value: the config class names the field, and the CLI prefixes it
    for doc, field in [({"generator": {"delay_max": 10**30}}, "generator.delay_max"),
                       ({"generator": {"services_max": 101}}, "generator.services_max"),
                       ({"generator": {"pdr_lo": 0.9, "pdr_hi": 0.8}}, "generator.pdr_hi"),
                       ({"loads": [10**21]}, "loads"),
                       ({"loads": []}, "loads"),
                       ({"substrate": "nope"}, "substrate"),
                       ({"iterations": 10**21}, "iterations"),
                       ({"iterations": 10_001}, "iterations"),
                       ({"seed": -1}, "seed")]:
        with pytest.raises(SchemaError) as info:
            cli.simulation_config_from_dict(doc)
        assert info.value.field == f"config.{field}", doc
        with pytest.raises(SchemaError) as direct:
            if "generator" in doc:
                scenario.GeneratorConfig(**doc["generator"])
            else:
                scenario.SimulationConfig(**{key: tuple(value) if key == "loads" else value
                                             for key, value in doc.items()})
        assert direct.value.field == field.removeprefix("generator."), doc
    # a bad JSON shape is refused by the CLI alone
    for doc, field in [({"generator": {"bogus": 1}}, "config.generator.bogus"),
                       ({"generator": [1]}, "config.generator"),
                       ({"loads": 10}, "config.loads"),
                       ({"coefficients": {"beta": "x"}}, "config.coefficients.beta"),
                       ([], "config")]:
        with pytest.raises(SchemaError) as info:
            cli.simulation_config_from_dict(doc)
        assert info.value.field == field, doc


@pytest.mark.parametrize("key", ["iterations", "seed"])
@pytest.mark.parametrize("value", [1.5, "2", True])
def test_simulate_config_needs_integer_iterations_and_seed(key, value):
    with pytest.raises(SchemaError) as info:
        cli.simulation_config_from_dict({key: value})
    assert info.value.field == f"config.{key}"


def _set(part, index, key, value):
    def edit(doc):
        doc[part][index][key] = value
    return edit


def _replace(part, index, value):
    def edit(doc):
        doc[part][index] = value
    return edit


def _append_copy(part, index):
    def edit(doc):
        doc[part].append(dict(doc[part][index]))
    return edit


# (file, edit of its JSON document, field named by the error)
BAD_EMBED_INPUTS = {
    "min_pdr_zero": ("request", _set("channels", 0, "min_pdr", 0), "channels[0].min_pdr"),
    "min_pdr_above_one": ("request", _set("channels", 1, "min_pdr", 1.5),
                          "channels[1].min_pdr"),
    "max_delay_zero": ("request", _set("channels", 0, "max_delay", 0),
                       "channels[0].max_delay"),
    "negative_channel_bw": ("request", _set("channels", 2, "bw", -5), "channels[2].bw"),
    "negative_service_cpu": ("request", _set("services", 0, "cpu", -5), "services[0].cpu"),
    "negative_service_gpu": ("request", _set("services", 1, "gpu", -1), "services[1].gpu"),
    "negative_service_mem": ("request", _set("services", 2, "mem", -1), "services[2].mem"),
    "channel_to_itself": ("request", _set("channels", 0, "dst", "s1"), "channels[0].dst"),
    "duplicate_channel": ("request", _append_copy("channels", 0), "channels[3].id"),
    "duplicate_service": ("request", _append_copy("services", 1), "services[3].id"),
    "string_service_functionals": ("request", _set("services", 0, "functionals", "cam"),
                                   "services[0].functionals"),
    "service_not_object": ("request", _replace("services", 0, 5), "services[0]"),
    "duplicate_node": ("substrate", _append_copy("nodes", 2), "nodes[5].id"),
    "duplicate_link": ("substrate", _append_copy("links", 0), "links[6].id"),
    "string_node_functionals": ("substrate", _set("nodes", 0, "functionals", "cam"),
                                "nodes[0].functionals"),
    "link_delay_nan": ("substrate", _set("links", 0, "delay", math.nan), "links[0].delay"),
    "link_delay_infinite": ("substrate", _set("links", 1, "delay", math.inf),
                            "links[1].delay"),
    "link_delay_beyond_float": ("substrate", _set("links", 2, "delay", 10**400),
                                "links[2].delay"),
    "link_pdr_zero": ("substrate", _set("links", 3, "pdr", 0), "links[3].pdr"),
    "link_pdr_nan": ("substrate", _set("links", 4, "pdr", math.nan), "links[4].pdr"),
    # 1 - pdr rounds to 1, so the anypath sweep would divide by zero
    "link_pdr_vanishing": ("substrate", _set("links", 0, "pdr", 1e-20), "links[0].pdr"),
    "negative_link_bw": ("substrate", _set("links", 5, "bw", -1), "links[5].bw"),
    "negative_node_cpu": ("substrate", _set("nodes", 0, "cpu", -1), "nodes[0].cpu"),
    "negative_node_gpu": ("substrate", _set("nodes", 2, "gpu", -3), "nodes[2].gpu"),
    "negative_node_mem": ("substrate", _set("nodes", 4, "mem", -1), "nodes[4].mem"),
    "bool_node_cpu": ("substrate", _set("nodes", 1, "cpu", True), "nodes[1].cpu"),
    "max_delay_infinite": ("request", _set("channels", 1, "max_delay", math.inf),
                           "channels[1].max_delay"),
}


@pytest.mark.parametrize("case", sorted(BAD_EMBED_INPUTS))
def test_embed_bad_input_is_input_error(example_files, case):
    substrate, request_file, _ = example_files
    target, edit, field = BAD_EMBED_INPUTS[case]
    path = substrate if target == "substrate" else request_file
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))
    detail = _assert_input_error(_run_cli("embed", "--substrate", str(substrate),
                                          "--request", str(request_file)))
    assert detail["field"] == field


def test_embed_bad_coefficients_is_input_error(example_files, tmp_path):
    substrate, request_file, _ = example_files
    coeffs = tmp_path / "bad_coeffs.json"
    for doc, field in [
        ({"alpha": {"cpu": "x", "gpu": 1, "mem": 1}}, "coefficients.alpha.cpu"),
        ({"beta": "3"}, "coefficients.beta"),
        ({"beta": math.inf}, "coefficients.beta"),
        ({"gamma": math.nan}, "coefficients.gamma"),
        ({"cost_beta": True}, "coefficients.cost_beta"),
        ({"alpha": -math.inf}, "coefficients.alpha"),
        ({"cost_alpha": {"cpu": 1, "gpu": "nan", "mem": 1}},
         "coefficients.cost_alpha.gpu"),
    ]:
        coeffs.write_text(json.dumps(doc))
        detail = _assert_input_error(_run_cli(
            "embed", "--substrate", str(substrate),
            "--request", str(request_file), "--coeffs", str(coeffs)))
        assert detail["field"] == field


# faults injected into the embedder, each of which credits the substrate
_FAULTS = {
    "reserve_channel_credits": """
        def fault(net, link_ids, bw, ledger):
            for link_id in link_ids:
                net.links[link_id].bw += bw
        embedder.reserve_channel = fault
    """,
    "rollback_credits_twice": """
        def fault(net, ledger):
            records = list(ledger)
            netmodel.rollback(net, ledger)
            netmodel.rollback(net, records)
        embedder.rollback = fault
    """,
}


@pytest.mark.parametrize("fault", sorted(_FAULTS))
def test_embed_that_corrupts_the_substrate_exits_internal(example_files, fault):
    substrate, request_file, _ = example_files
    if fault == "rollback_credits_twice":
        # s2 is placed on n4, then c1 has no route within its bound
        doc = json.loads(request_file.read_text())
        doc["channels"][0].update(max_delay=1.0, min_pdr=0.99)
        request_file.write_text(json.dumps(doc))
    script = ("import sys\nfrom anypath_vne import cli, embedder, netmodel\n"
              + textwrap.dedent(_FAULTS[fault])
              + "sys.exit(cli.main(sys.argv[1:]))\n")
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", script, "embed", "--substrate", str(substrate),
         "--request", str(request_file)],
        capture_output=True, text=True, env=env)
    assert proc.returncode == cli.EXIT_INTERNAL
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1
    assert "exceeds original" in lines[0]


def test_embed_that_leaves_a_fractional_bandwidth_exits_internal(
        example_files, monkeypatch, capsys):
    substrate, request_file, _ = example_files
    embed = cli.embed

    def fault(net, request, coeffs):
        embedding = embed(net, request, coeffs)
        net.links["l3"].bw -= 0.5   # within [0, original], but not a count
        return embedding

    monkeypatch.setattr(cli, "embed", fault)
    code = cli.main(["embed", "--substrate", str(substrate),
                     "--request", str(request_file)])
    out, err = capsys.readouterr()
    assert code == cli.EXIT_INTERNAL
    assert out == ""
    assert err.splitlines() == ["internal error: embedding left the substrate "
                                "invalid: link l3: non-integer bandwidth"]


_JUNK = st.one_of(
    st.none(), st.booleans(), st.integers(-10**25, 10**25), st.floats(),
    st.text(max_size=3), st.lists(st.integers(-3, 3), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(-3, 3), max_size=2))
_LABELS = st.lists(st.sampled_from(["cam", "gpu"]), max_size=2)


def _pairs(draw, n: int, most: int) -> list:
    """Up to most distinct unordered pairs of 1..n."""
    if n < 2:
        return []
    pair = st.tuples(st.integers(1, n), st.integers(1, n)).filter(lambda p: p[0] != p[1])
    return draw(st.lists(pair, max_size=most,
                         unique_by=lambda p: frozenset(p)))


@st.composite
def _substrate_docs(draw):
    n = draw(st.integers(0, 5))
    nodes = [{"id": f"n{i}", "cpu": draw(st.integers(0, 50)),
              "gpu": draw(st.integers(0, 50)), "mem": draw(st.integers(0, 50)),
              "functionals": draw(_LABELS)}
             for i in range(1, n + 1)]
    links = [{"id": f"l{k}", "a": f"n{a}", "b": f"n{b}",
              "bw": draw(st.integers(0, 50)), "delay": draw(st.floats(0.1, 50.0)),
              "pdr": draw(st.floats(0.0, 1.0, exclude_min=True))}
             for k, (a, b) in enumerate(_pairs(draw, n, 7), 1)]
    return {"nodes": nodes, "links": links}


@st.composite
def _request_docs(draw):
    m = draw(st.integers(1, 4))
    services = [{"id": f"s{i}", "cpu": draw(st.integers(0, 30)),
                 "gpu": draw(st.integers(0, 30)), "mem": draw(st.integers(0, 30)),
                 "functionals": draw(_LABELS)}
                for i in range(1, m + 1)]
    channels = [{"id": f"c{k}", "src": f"s{a}", "dst": f"s{b}",
                 "bw": draw(st.integers(0, 40)),
                 "max_delay": draw(st.sampled_from([1e-3, 5.0, 100.0, 1e308])),
                 "min_pdr": draw(st.floats(0.05, 1.0))}
                for k, (a, b) in enumerate(_pairs(draw, m, 4), 1)]
    return {"id": "fuzz", "services": services, "channels": channels}


def _mutate(draw, doc, parts):
    """doc with one field, item, list or the whole document made junk or dropped."""
    kind = draw(st.sampled_from(["field", "drop", "item", "list", "doc"]))
    if kind == "doc" or not isinstance(doc, dict):
        return draw(_JUNK)
    part = draw(st.sampled_from(parts))
    items = doc.get(part)
    if kind == "list":
        doc[part] = draw(_JUNK)
    elif isinstance(items, list) and items:
        i = draw(st.integers(0, len(items) - 1))
        if kind == "item" or not isinstance(items[i], dict) or not items[i]:
            items[i] = draw(_JUNK)
        else:
            key = draw(st.sampled_from(sorted(items[i])))
            if kind == "field":
                items[i][key] = draw(_JUNK)
            else:
                del items[i][key]
    return doc


@st.composite
def _cli_inputs(draw):
    substrate, request = draw(_substrate_docs()), draw(_request_docs())
    for _ in range(draw(st.integers(0, 2))):
        if draw(st.booleans()):
            substrate = _mutate(draw, substrate, ["nodes", "links"])
        else:
            request = _mutate(draw, request, ["services", "channels"])
    number = st.one_of(st.floats(-5.0, 5.0), _JUNK)
    coeffs = draw(st.none() | st.fixed_dictionaries(
        {}, optional={"alpha": number, "beta": number, "gamma": number,
                      "cost_alpha": number, "cost_beta": number}))
    return substrate, request, coeffs


@settings(max_examples=150, deadline=None)
@given(_cli_inputs())
def test_fuzzed_embed_and_validate_exit_cleanly(inputs):
    substrate, request, coeffs = inputs
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name, doc in (("substrate", substrate), ("request", request),
                          ("coeffs", coeffs)):
            paths[name] = str(Path(tmp) / f"{name}.json")
            Path(paths[name]).write_text(json.dumps(doc))
        embed_argv = ["embed", "--substrate", paths["substrate"],
                      "--request", paths["request"]]
        if coeffs is not None:
            embed_argv += ["--coeffs", paths["coeffs"]]
        argvs = [(["validate", "--substrate", paths["substrate"]],
                  {cli.EXIT_OK, cli.EXIT_INPUT}),
                 (embed_argv, {cli.EXIT_OK, cli.EXIT_BLOCKED, cli.EXIT_INPUT})]
        for argv, allowed in argvs:
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(err):
                code = cli.main(argv)
            assert code in allowed, (argv[0], err.getvalue())
            assert "Traceback" not in err.getvalue()


# junk whose integers are negative, small or far beyond every bound, so that
# no drawn config runs more than a dozen iterations of a dozen requests
_CONFIG_JUNK = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 12), st.sampled_from([10**25, -10**25]),
    st.floats(), st.text(max_size=3), st.lists(st.integers(-3, 12), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(-3, 3), max_size=2))


@st.composite
def _simulate_configs(draw):
    """A tiny simulate config, then maybe a field, a key or the document made junk."""
    doc = {"iterations": 1, "loads": draw(st.lists(st.integers(1, 6), min_size=1,
                                                  max_size=2)),
           "seed": draw(st.integers(0, 2**64))}
    if draw(st.booleans()):
        doc["substrate"] = draw(st.sampled_from(["example", "simulation", "ring"]))
    if draw(st.booleans()):
        doc["generator"] = draw(st.fixed_dictionaries({}, optional={
            "services_max": st.integers(2, 6), "bw_max": st.integers(10, 100),
            "pdr_lo": st.floats(0.0, 1.0), "channel_prob": st.floats(0.0, 1.0),
            "ordered_pairs": st.booleans(), "extra": st.just(1)}))
    if draw(st.booleans()):
        doc["coefficients"] = draw(st.fixed_dictionaries({}, optional={
            "beta": st.floats(-5.0, 5.0), "gamma": _CONFIG_JUNK,
            "alpha": st.floats(0.0, 5.0)}))
    kind = draw(st.sampled_from(["none", "field", "drop", "nested", "doc"]))
    if kind == "doc":
        return draw(_CONFIG_JUNK)
    if kind in ("field", "drop"):
        key = draw(st.sampled_from(sorted(doc)))
        if kind == "field":
            doc[key] = draw(_CONFIG_JUNK)
        else:
            del doc[key]
    elif kind == "nested":
        part = draw(st.sampled_from(["generator", "coefficients"]))
        doc[part] = {draw(st.sampled_from(["services_min", "cpu_max", "pdr_hi",
                                           "gpu_prob", "beta", "cost_alpha"])):
                     draw(_CONFIG_JUNK)}
    return doc


@settings(max_examples=40, deadline=None)
@given(_simulate_configs())
def test_fuzzed_simulate_config_exits_cleanly(config):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(config))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            code = cli.main(["simulate", "--config", str(path),
                             "--out", str(Path(tmp) / "out")])
    assert code in {cli.EXIT_OK, cli.EXIT_INPUT}, err.getvalue()
    assert "Traceback" not in err.getvalue()


def _sim_config(tmp_path, seed=5):
    cfg = {"iterations": 3, "loads": [5, 10], "seed": seed}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def test_simulate_writes_expected_csvs(tmp_path, capsys):
    config = _sim_config(tmp_path)
    out_dir = tmp_path / "out"
    code = cli.main(["simulate", "--config", str(config), "--out", str(out_dir)])
    assert code == cli.EXIT_OK
    with open(out_dir / "summary.csv") as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 2 * 4    # 2 loads x 4 metrics
    assert {r["metric"] for r in rows} \
        == {"acceptance_ratio", "revenue", "cost", "rc_ratio"}
    for row in rows:
        float(row["mean"])
        float(row["stddev"])
    with open(out_dir / "raw.csv") as handle:
        raw = list(csv.DictReader(handle))
    assert len(raw) == 3 * 2
    assert set(raw[0]) == {"iteration", "load", "accepted", "blocked",
                           "acceptance_ratio", "revenue", "cost", "rc_ratio"}
    with open(out_dir / "node_usage.csv") as handle:
        nodes = list(csv.DictReader(handle))
    assert len(nodes) == 2 * 10
    with open(out_dir / "link_usage.csv") as handle:
        links = list(csv.DictReader(handle))
    assert len(links) == 2 * 20
    assert all(float(r["bw_used_mean"]) <= float(r["bw_total"]) for r in links)


def test_simulate_same_seed_gives_identical_bytes(tmp_path):
    config = _sim_config(tmp_path)
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert cli.main(["simulate", "--config", str(config), "--out", str(out_a)]) == 0
    assert cli.main(["simulate", "--config", str(config), "--out", str(out_b)]) == 0
    for name in ("raw.csv", "summary.csv", "node_usage.csv", "link_usage.csv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_simulate_different_seeds_differ(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert cli.main(["simulate", "--config", str(_sim_config(tmp_path, seed=5)),
                     "--out", str(out_a)]) == 0
    assert cli.main(["simulate", "--config", str(_sim_config(tmp_path, seed=6)),
                     "--out", str(out_b)]) == 0
    assert (out_a / "raw.csv").read_bytes() != (out_b / "raw.csv").read_bytes()


# sha256 of the four CSVs that `simulate` writes for {"iterations": 3,
# "seed": 1}, recorded at commit a6a9d6b; any byte change in the output fails
REFERENCE_SHA256 = {
    "raw.csv": "1e3913195148144713ea2e43b7d0dab9c17b38275bcfb7dbfcecbc77a060fb22",
    "summary.csv": "88fc0112bc74772b09c8d2055ac49bd8459036d0db895a659c38cc405b449aec",
    "node_usage.csv": "5311507df82da1f7f8df404ac9efc6aef29c356b04e06099066ba356487731af",
    "link_usage.csv": "101f014c6be5c2dbc07c10feada33a49236665f0c10f9a5858964c29584a8ed7",
}


def test_simulate_csv_bytes_match_reference(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"iterations": 3, "seed": 1}))
    out_dir = tmp_path / "out"
    assert cli.main(["simulate", "--config", str(config),
                     "--out", str(out_dir)]) == cli.EXIT_OK
    found = {name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
             for name in REFERENCE_SHA256}
    assert found == REFERENCE_SHA256
