"""CLI subcommands: outputs, manifests, error codes, replay."""

import hashlib
import itertools
import json
import os
import random
import shlex
import subprocess
import sys
import warnings

import pytest

import allpath
from allpath import cli, simnet
from allpath.cli import main
from allpath.topology import make_line, make_simple_grid


MISSING = object()  # a field left out of the scenario


def run(argv):
    return main(argv)


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


def output_digests(out):
    """sha256 of each file simulate writes but the manifest, and of
    report.json's document re-encoded with sorted keys."""
    digests = {name: hashlib.sha256(read(out / name)).hexdigest()
               for name in ("report.json", "report.csv", "tables.csv")}
    doc = json.loads(read(out / "report.json"))
    digests["report.json content"] = hashlib.sha256(
        json.dumps(doc, sort_keys=True).encode()).hexdigest()
    return digests


class TestSimulate:
    def test_smoke(self, tmp_path):
        out = tmp_path / "run"
        assert run(["simulate", "--topology", "grid:3", "--protocol", "arp-path",
                    "--seed", "7", "--out", str(out)]) == 0
        for name in ("report.json", "report.csv", "tables.csv", "manifest.json"):
            assert (out / name).exists()
        doc = json.loads((out / "report.json").read_text())
        assert doc["protocol"] == "arp_path"

    def test_unknown_protocol_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run(["simulate", "--protocol", "token-ring", "--out", str(tmp_path)])
        assert exc.value.code == 2

    def test_bad_topology_runtime_error(self, tmp_path, capsys):
        # the parser checks --topology (exit 2); a scenario's topology is read
        # when the run starts
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps({"topology": "grid:x"}))
        out = tmp_path / "run"
        assert run(["simulate", "--scenario", str(scenario), "--out", str(out)]) == 1
        assert capsys.readouterr().err == ("allpath: error: unknown topology 'grid:x' "
                                           "(use grid:N, crossed:N or diamond)\n")
        assert not out.exists()

    def test_scenario_file(self, tmp_path):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps({
            "topology": "diamond", "protocol": "flow-path", "seed": 3,
            "flows": [{"src": "A", "dst": "B", "size_bits": 12000, "start_time": 0.0}],
        }))
        out = tmp_path / "run"
        assert run(["simulate", "--scenario", str(scenario), "--out", str(out)]) == 0
        doc = json.loads((out / "report.json").read_text())
        assert doc["protocol"] == "flow_path"
        assert doc["flows"][0]["status"] == "done"

    @pytest.mark.parametrize("topo", ["grid:3", make_simple_grid(3).to_json_dict()],
                             ids=["name", "object"])
    def test_scenario_without_flows_is_the_flag_run(self, tmp_path, topo):
        # a field the document lacks takes its option's value, flows too, and a
        # field it has wins over its option
        flag = tmp_path / "flag"
        assert run(["simulate", "--topology", "grid:3", "--protocol", "bridge-path",
                    "--seed", "7", "--flows", "12", "--out", str(flag)]) == 0
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps({"topology": topo, "seed": 7}))
        out = tmp_path / "run"
        assert run(["simulate", "--scenario", str(scenario), "--topology", "diamond",
                    "--seed", "99", "--protocol", "bridge-path", "--flows", "12",
                    "--out", str(out)]) == 0
        for name in ("report.json", "report.csv", "tables.csv"):
            assert read(out / name) == read(flag / name), name

    def test_scenario_protocol_of_another_name_runtime_error(self, tmp_path, capsys):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps({
            "topology": "diamond", "protocol": "arp_path",
            "flows": [{"src": "A", "dst": "B", "size_bits": 12000, "start_time": 0.0}],
        }))
        out = tmp_path / "run"
        assert run(["simulate", "--scenario", str(scenario), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "allpath: error: scenario.protocol must be one of arp-path, flow-path, "
            'bridge-path, not "arp_path"\n')
        assert not (out / "report.json").exists()

    def test_topology_file_runtime_error(self, tmp_path, capsys):
        # a topology is a generator name, or an object inside a scenario
        path = tmp_path / "topo.json"
        path.write_text(json.dumps(make_line(3).to_json_dict()))
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps({"topology": str(path)}))
        out = tmp_path / "run"
        assert run(["simulate", "--scenario", str(scenario), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "allpath: error: unknown topology %r (use grid:N, crossed:N or diamond)\n"
            % str(path))
        assert not out.exists()

    def test_old_topology_meta_is_ignored(self, tmp_path):
        topo = make_simple_grid(2).to_json_dict()
        old = dict(topo, meta={"kind": "simple_grid", "n": 2, "corner_pair": [1, 4]})
        for name, doc in (("plain", topo), ("old", old)):
            scenario = tmp_path / (name + ".json")
            scenario.write_text(json.dumps({"topology": doc, "seed": 3}))
            assert run(["simulate", "--scenario", str(scenario), "--flows", "4",
                        "--out", str(tmp_path / name)]) == 0
        for name in ("report.json", "report.csv", "tables.csv"):
            assert read(tmp_path / "plain" / name) == read(tmp_path / "old" / name), name

    def test_failed_run_removes_the_directories_it_made(self, tmp_path, capsys):
        out = tmp_path / "fresh" / "nested"
        assert run(["simulate", "--scenario", str(tmp_path / "missing.json"),
                    "--out", str(out)]) == 1
        assert "missing.json" in capsys.readouterr().err
        assert os.listdir(tmp_path) == []

    # nothing raises KeyError on bad input, so one is a bug and propagates like any other
    @pytest.mark.parametrize("error", [RuntimeError, KeyError])
    def test_any_exception_removes_the_directories_it_made(self, tmp_path, monkeypatch, error):
        def fail(args):
            raise error("sweep failed")
        monkeypatch.setattr(cli, "cmd_scalability", fail)
        with pytest.raises(error, match="sweep failed"):
            main(["scalability", "--n-range", "2..3", "--out", str(tmp_path / "a" / "b")])
        assert os.listdir(tmp_path) == []

    def test_failed_run_keeps_a_directory_that_existed(self, tmp_path, monkeypatch):
        out = tmp_path / "existing"
        out.mkdir()
        missing = str(tmp_path / "missing.json")
        assert run(["simulate", "--scenario", missing, "--out", str(out)]) == 1
        assert out.is_dir()
        # nor the working directory, the default --out
        monkeypatch.chdir(out)
        monkeypatch.delenv("ALLPATH_OUTDIR", raising=False)
        assert run(["simulate", "--scenario", missing]) == 1
        assert out.is_dir() and os.getcwd() == str(out)

    def test_failed_run_writes_no_file(self, tmp_path, capsys, monkeypatch):
        # the command fails after the simulation and report.json's text are done
        def fail(bridges, now):
            raise ValueError("tables.csv failed")
        monkeypatch.setattr(cli, "tables_csv", fail)
        out = tmp_path / "fresh"
        assert run(["simulate", "--topology", "diamond", "--flows", "1",
                    "--out", str(out)]) == 1
        assert capsys.readouterr().err == "allpath: error: tables.csv failed\n"
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("sub", [[], ["sub"]], ids=["file", "file-sub"])
    def test_out_through_a_regular_file_runtime_error(self, tmp_path, capsys, sub):
        path = tmp_path / "taken"
        path.write_bytes(b"not a directory\n")
        assert run(["scalability", "--n-range", "2..2", "--hosts", "4",
                    "--out", str(path.joinpath(*sub))]) == 1
        err = capsys.readouterr().err
        assert err.startswith("allpath: error: ") and err.count("\n") == 1, err
        assert path.read_bytes() == b"not a directory\n"
        assert os.listdir(tmp_path) == ["taken"]

    def test_random_flows_need_two_hosts_runtime_error(self, tmp_path, capsys):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps({"topology": make_line(2, hosts={"A": 1}).to_json_dict()}))
        out = tmp_path / "run"
        assert run(["simulate", "--scenario", str(scenario), "--out", str(out)]) == 1
        assert capsys.readouterr().err == "allpath: error: topology has fewer than two hosts\n"
        assert not out.exists()

    def test_self_flow_runtime_error(self, tmp_path, capsys):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps({
            "topology": make_line(3).to_json_dict(), "protocol": "arp-path",
            "flows": [{"src": "A", "dst": "A", "size_bits": 12000, "start_time": 0.0},
                      {"src": "A", "dst": "B", "size_bits": 12000, "start_time": 0.0}],
        }))
        out = tmp_path / "run"
        assert run(["simulate", "--scenario", str(scenario), "--out", str(out)]) == 1
        assert "to itself" in capsys.readouterr().err
        assert not (out / "report.json").exists()

    @pytest.mark.parametrize("duration", [0, -5, float("nan"), float("inf")])
    def test_bad_scenario_duration_runtime_error(self, tmp_path, capsys, duration):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps({
            "topology": "diamond", "duration": duration,
            "flows": [{"src": "A", "dst": "B", "size_bits": 12000, "start_time": 0.0}],
        }))
        out = tmp_path / "run"
        assert run(["simulate", "--scenario", str(scenario), "--out", str(out)]) == 1
        assert "duration must be finite and positive" in capsys.readouterr().err
        assert not (out / "report.json").exists()

    @pytest.mark.parametrize("field, value", [
        ("duration", "5"), ("size_bits", "12000"),
        pytest.param("size_bits", MISSING, id="size_bits-missing"),
        pytest.param("start_time", MISSING, id="start_time-missing"),
    ])
    def test_scenario_field_of_wrong_type_runtime_error(self, tmp_path, capsys, field, value):
        flow = {"src": "A", "dst": "B", "size_bits": 12000, "start_time": 0.0}
        doc = {"topology": "diamond", "flows": [flow, {**flow, "src": "B", "dst": "A"}]}
        if value is MISSING:  # from the second flow, which the message names
            del doc["flows"][1][field]
            expected = "scenario.flows[1] has no %s" % field
        elif field in flow:  # the first flow
            flow[field] = value
            expected = 'scenario.flows[0].%s must be a number, not "%s"' % (field, value)
        else:
            doc[field] = value
            expected = 'scenario.%s must be a number, not "%s"' % (field, value)
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(doc))
        out = tmp_path / "run"
        assert run(["simulate", "--scenario", str(scenario), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == "allpath: error: %s\n" % expected
        assert not (out / "report.json").exists()

    @pytest.mark.parametrize("topo, expected", [
        pytest.param({"bridges": 5, "links": [], "hosts": {}},
                     "topology.bridges must be a list, not 5", id="bridges-not-a-list"),
        pytest.param({"bridges": [{"id": 1}, {"id": 2}], "links": [{"a": 1}], "hosts": []},
                     "topology.links[0] has no b", id="link-without-b"),
        pytest.param({"bridges": [{"id": 1}, {"id": 2}], "links": [{"a": 1, "b": 2}],
                      "hosts": [{"id": "A", "bridge": 1}, {"id": "A", "bridge": 2}]},
                     'topology.hosts[1].id repeats host "A"', id="repeated-host"),
        pytest.param({"bridges": [{"id": 1}, {"id": 2}],
                      "links": [{"a": 1, "b": 2}, {"a": "A", "b": 2}],
                      "hosts": [{"id": "A", "bridge": 1}]},
                     "host 'A' attaches to bridge 1, but a link joins it to bridge 2",
                     id="stray-host-link"),
        pytest.param({"bridges": [{"id": 1}, {"id": 2}], "links": [{"a": 1, "b": 2}],
                      "hosts": [{"id": "2", "bridge": 1}, {"id": "B", "bridge": 2}]},
                     "host '2' has the name of bridge 2", id="host-named-like-a-bridge"),
        pytest.param({"bridges": [{"id": 1}, {"id": 2}, {"id": 3}],
                      "links": [{"a": 1, "b": 2}, {"a": 2, "b": 3}],
                      "hosts": [{"id": "2-3", "bridge": 1}, {"id": "1-2", "bridge": 3}]},
                     "two links are named '1-2-3'", id="colliding-link-names"),
        pytest.param({"bridges": [{"id": 1}], "links": [], "hosts": [{"id": "A", "bridge": 9}]},
                     "host 'A' attaches to unknown bridge 9", id="host-on-unknown-bridge"),
        pytest.param({"bridges": [{"id": 1}], "links": [{"a": "x", "b": 1}], "hosts": []},
                     "link to unknown host 'x'", id="link-to-unknown-host"),
        pytest.param({"bridges": [{"id": 1}], "links": [{"a": "x", "b": "y"}], "hosts": []},
                     "link endpoints ['x', 'y'] not in topology", id="link-between-unknowns"),
        pytest.param({"bridges": [], "links": [], "hosts": []},
                     "topology has no bridges", id="no-bridges"),
    ])
    def test_topology_object_of_wrong_shape_runtime_error(self, tmp_path, capsys, topo,
                                                          expected):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps({"topology": topo, "flows": []}))
        out = tmp_path / "run"
        assert run(["simulate", "--scenario", str(scenario), "--out", str(out)]) == 1
        assert capsys.readouterr().err == "allpath: error: %s\n" % expected
        assert not (out / "report.json").exists()

    @pytest.mark.parametrize("field, value", [("size_bits", float("inf")), ("size_bits", 0),
                                              ("start_time", float("nan")),
                                              ("start_time", -1.0)])
    def test_flow_field_out_of_range_runtime_error(self, tmp_path, capsys, field, value):
        flow = {"src": "A", "dst": "B", "size_bits": 12000, "start_time": 0.0, field: value}
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps({"topology": "diamond",
                                        "flows": [flow, {**flow, "src": "B", "dst": "A"}]}))
        out = tmp_path / "run"
        assert run(["simulate", "--scenario", str(scenario), "--out", str(out)]) == 1
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("allpath: error: flow ") and "must be finite" in line
        assert not (out / "report.json").exists()

    def test_simulate_does_not_import_numpy(self, tmp_path):
        # only qbd needs numpy, and importing it is most of a cold start
        src_dir = os.path.dirname(os.path.dirname(allpath.__file__))
        code = ("import sys; from allpath.cli import main; "
                "code = main(['simulate', '--topology', 'grid:3', '--out', sys.argv[1]]); "
                "sys.exit(code or 'numpy' in sys.modules)")
        env = dict(os.environ, PYTHONPATH=src_dir)
        done = subprocess.run([sys.executable, "-c", code, str(tmp_path)], env=env)
        assert done.returncode == 0

    def test_env_outdir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("ALLPATH_OUTDIR", str(tmp_path / "envout"))
        assert run(["simulate", "--topology", "diamond", "--flows", "1"]) == 0
        assert (tmp_path / "envout" / "report.json").exists()


class TestPinnedOutputs:
    """sha256 of the simulate outputs of one fixed run under each protocol.

    Every frame-path change so far kept these bytes, and a speed-up must
    keep them.  A change that alters simulation output on purpose (a model
    or table-timer correction) updates the digests here and says which
    outputs changed and why in CHANGES.md.  Both kernels of the fluid plane
    must give these bytes, so each run is also checked with the whole
    recompute, fill included, on the pure-python twin, simnet.step_py.

    "report.json content" digests the report's document re-encoded with
    sorted keys, so it holds for any layout of the file.  These digests were
    taken while report.json was still written with indent=2: a change of
    layout alone keeps them.
    """

    DIGESTS = {
        "arp-path": {
            "report.json": "b2bce6de290bf80253eb1c7131600dd46e765038ebbf52a70999a565fd87a92e",
            "report.csv": "a28507fc2c94d2e89ee934773fe567df84e13b89c510fc76fa5e670fe4ea451e",
            "tables.csv": "69174470f521eaeaacaad07fe2ef7a7988eff597819d8f65c3ce92c0188fbc78",
            "report.json content": "ee903f82c28d8ea3d3f68862027d5085003a9dbad902536dabd6e08ae223340a",
        },
        "flow-path": {
            "report.json": "baddff627d833dfc32485e59ad047bd0b9fb531e8246619d03385f67bd275006",
            "report.csv": "27d9fc17a31a4805d21179b764fe5a66e6ced5052941d542045d10e3fbf515ca",
            "tables.csv": "97c628c7fb0d865f17b1450dde05339262592d47c98143ac183e1ac938b03f42",
            "report.json content": "9da22bf8e280d6f1ee9bc994a9d40936802a4d6ab7fd5e9316d5a6f46eb9e7ab",
        },
        "bridge-path": {
            "report.json": "04f4146cd37b1597c2139b8c4c336f95b70ebcde83edc936f02d79e32653cf0a",
            "report.csv": "a28507fc2c94d2e89ee934773fe567df84e13b89c510fc76fa5e670fe4ea451e",
            "tables.csv": "50eb1fe5c923388985aaa767ee3fc567a25a70e9f19aa6d607e85e86e76a2c2e",
            "report.json content": "0e134fe9faaa56b8d7951592a616dfa355b975fedfa243a6de3217283632022c",
        },
    }

    @pytest.mark.parametrize("protocol", sorted(DIGESTS))
    def test_simulate_outputs_are_pinned(self, tmp_path, protocol):
        self.check_simulate_outputs(tmp_path, protocol)

    @pytest.mark.parametrize("protocol", sorted(DIGESTS))
    def test_simulate_outputs_are_pinned_on_the_python_fill(self, tmp_path, protocol,
                                                             monkeypatch):
        monkeypatch.setattr(simnet, "step", simnet.step_py)
        self.check_simulate_outputs(tmp_path, protocol)

    def check_simulate_outputs(self, tmp_path, protocol, cut=(), digests=DIGESTS):
        assert run(["simulate", "--topology", "grid:3", "--seed", "7", "--flows", "12",
                    "--protocol", protocol, "--out", str(tmp_path), *cut]) == 0
        assert output_digests(tmp_path) == digests[protocol]

    # the same runs cut at 0.05 s, while every bridge's entry of the first
    # flood is still locked: tables.csv shows locked rows and their deadlines
    LIVE_LOCK_DIGESTS = {
        "arp-path": {
            "report.json": "142241cdcff9defa48c64337ea5045d000485337ac261a86bd23714dd7eb8097",
            "report.csv": "ac546b92566b561b3062f720e64d2863b9f201ab29995a91528b1a9c68f6a2c3",
            "tables.csv": "672467a9c9083052ba8e8be8ad3344f079ef523da7aa97aab389bfbc7a6309e8",
            "report.json content": "f652b9fc10b02f3954940f6eaa6b22b8ccd3689298a8e247859f1562912339c5",
        },
        "flow-path": {
            "report.json": "a385da77612f8c7e9634e8a7563fff5cbc40d08db1fb6e178a7b19a5e82b9ab8",
            "report.csv": "ac546b92566b561b3062f720e64d2863b9f201ab29995a91528b1a9c68f6a2c3",
            "tables.csv": "4a0b09f9f53ab5780e6882d92fc2686eb91897eca5344663a9befa70f6c12ad3",
            "report.json content": "56a13f87149cf8ff309d131bf63243964311ae16c9a28fb1a59b9b3b9bee8a39",
        },
        "bridge-path": {
            "report.json": "a145c07cd5836a81f4ac7b69d83fc4191b9ea282a49274639e1e4ed83baf16f0",
            "report.csv": "ac546b92566b561b3062f720e64d2863b9f201ab29995a91528b1a9c68f6a2c3",
            "tables.csv": "1372ae95298bf5fef942570f7430794f7941068fb5ab96386445850c54813933",
            "report.json content": "7a02a5d159adaae1454334cda4ceeec81cc029741aa377b1ab56a75c64b5c930",
        },
    }

    @pytest.mark.parametrize("protocol", sorted(LIVE_LOCK_DIGESTS))
    def test_live_lock_outputs_are_pinned(self, tmp_path, protocol):
        self.check_live_lock_outputs(tmp_path, protocol)

    @pytest.mark.parametrize("protocol", sorted(LIVE_LOCK_DIGESTS))
    def test_live_lock_outputs_are_pinned_on_the_python_fill(self, tmp_path, protocol,
                                                              monkeypatch):
        monkeypatch.setattr(simnet, "step", simnet.step_py)
        self.check_live_lock_outputs(tmp_path, protocol)

    def check_live_lock_outputs(self, tmp_path, protocol):
        self.check_simulate_outputs(tmp_path, protocol, ("--duration", "0.05"),
                                    self.LIVE_LOCK_DIGESTS)
        rows = read(tmp_path / "tables.csv").decode().splitlines()[1:]
        assert "locked" in {row.split(",")[4] for row in rows}

    # a scenario file on a 4x4 grid with two hosts per corner: 20 flows, every
    # other one 400 Mbit so that bulk flows overlap, cut at 4 s
    SCENARIO_DIGESTS = {
        "arp-path": {
            "report.json": "7268807edda8353968ed818d11502d3ac91391d33fb6b756437a39778f029aee",
            "report.csv": "b4492ef8e4a1be65d86de83d518a1b31be365cbcd155d588adab34c62653567b",
            "tables.csv": "31b2e5f495cda7bd7f4f40420f328839f7b6dbf3d07e2160d6ffeeaa983ff938",
            "report.json content": "d9be15adde25b16821de6588d8676dd0e1f26b3076000475a0d7654acca88803",
        },
        "flow-path": {
            "report.json": "e5f266adc548b3707e5ab627d0f0a4cd0bf0bbcba7ff07ea9e954b47472a5a33",
            "report.csv": "81a3d6aded1c0855cdc20981de551199bad27716dd2df2dd904569100c6a1efb",
            "tables.csv": "a0a2880f1df5e607db6d321c6533fed0b1cd6a4de8c52b4de89135db3fbc8865",
            "report.json content": "07708cc189c08ffaa2c6b5b5bcec0d9ef447940362f9b71b8f0061f9fa0a387f",
        },
        "bridge-path": {
            "report.json": "c0fb324d764902d7de9f763ed1cfc4e3b308801cda875d690efca3c28789ce96",
            "report.csv": "f61cbdf5416089ead7fae5159f301bbb72eb3f191f0ff3f52185dc8ea9510b80",
            "tables.csv": "5cd2cf2282ea7aaf955e5eab48522333659b86ace837ef6ef84281001db69bb1",
            "report.json content": "de73480875d44a076218443cf24b912511ee9d49ed0281c6fa4d77109594f3d6",
        },
    }

    @pytest.mark.parametrize("protocol", sorted(SCENARIO_DIGESTS))
    def test_scenario_outputs_are_pinned(self, tmp_path, protocol):
        self.check_scenario_outputs(tmp_path, protocol)

    @pytest.mark.parametrize("protocol", sorted(SCENARIO_DIGESTS))
    def test_scenario_outputs_are_pinned_on_the_python_fill(self, tmp_path, protocol,
                                                             monkeypatch):
        monkeypatch.setattr(simnet, "step", simnet.step_py)
        self.check_scenario_outputs(tmp_path, protocol)

    def check_scenario_outputs(self, tmp_path, protocol):
        topo = make_simple_grid(4, hosts_per_corner=2)
        pairs = list(itertools.permutations(sorted(topo.hosts), 2))
        random.Random(2017).shuffle(pairs)
        flows = [{"src": a, "dst": b, "size_bits": 4e8 if k % 2 else 12000,
                  "start_time": 0.1 * k} for k, (a, b) in enumerate(pairs[:20])]
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps({"topology": topo.to_json_dict(), "protocol": protocol,
                                        "seed": 11, "duration": 4.0, "flows": flows}))
        out = tmp_path / "run"
        assert run(["simulate", "--scenario", str(scenario), "--out", str(out)]) == 0
        assert output_digests(out) == self.SCENARIO_DIGESTS[protocol]


class TestHashSeedIndependence:
    def test_bridge_path_bytes_do_not_depend_on_pythonhashseed(self, tmp_path):
        # four hosts per edge bridge: Bridge-Path delivers a flood to several
        # local hosts, and the order of those copies must not come from set
        # iteration, which follows the string hash of the host ids; the idle
        # links of report.csv come from a scan of the links by index
        topo = make_simple_grid(4, hosts_per_corner=4)
        pairs = list(itertools.permutations(sorted(topo.hosts), 2))
        random.Random(2017).shuffle(pairs)
        flows = [{"src": a, "dst": b, "size_bits": 12000, "start_time": 0.3 * k}
                 for k, (a, b) in enumerate(pairs[:30])]
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps({"topology": topo.to_json_dict(), "seed": 1,
                                        "flows": flows}))
        src_dir = os.path.dirname(os.path.dirname(allpath.__file__))
        outputs = []
        for hash_seed in ("0", "1", "2"):
            out = tmp_path / ("hash" + hash_seed)
            env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src_dir)
            subprocess.run([sys.executable, "-m", "allpath.cli", "simulate",
                            "--scenario", str(scenario), "--protocol", "bridge-path",
                            "--out", str(out)], env=env, check=True)
            outputs.append([read(out / name)
                            for name in ("report.json", "report.csv", "tables.csv")])
        assert outputs[0] == outputs[1] == outputs[2]


class TestScalability:
    def test_sweep(self, tmp_path):
        assert run(["scalability", "--grid", "simple", "--n-range", "2..4",
                    "--hosts", "4,8,12", "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "scalability.csv").read_text().strip().split("\n")
        header = lines[0].split(",")
        assert header[:2] == ["n", "H"]
        assert len(lines) == 1 + 3 * 3
        r_ab = {row.split(",")[header.index("R_AB")] for row in lines[1:]}
        assert r_ab == {"1", "2", "3"}

    @pytest.mark.parametrize("grid, digest", [
        ("simple", "480c833d005215cfb483201d157c0515dd4c02c1e79f144236b065fc60ba1fff"),
        ("crossed", "08a04b3a2dcb18da7dd7593230816a0575b44b12bce20bc6474e67f2a3dd991b"),
    ])
    def test_benchmark_sweeps_are_pinned(self, tmp_path, grid, digest):
        # perfbench's analytic sweeps, byte for byte
        assert run(["scalability", "--grid", grid, "--n-range", "2..12",
                    "--hosts", "4,8,12", "--out", str(tmp_path)]) == 0
        assert hashlib.sha256(read(tmp_path / "scalability.csv")).hexdigest() == digest

    def test_single_n(self, tmp_path):
        assert run(["scalability", "--n-range", "2..2", "--hosts", "4",
                    "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "scalability.csv").read_text().strip().split("\n")
        assert len(lines) == 2

    def test_crossed_includes_plus_one_counts(self, tmp_path):
        from allpath.topology import (SHORTEST_PLUS_ONE, enumerate_paths,
                                      make_crossed_grid)
        assert run(["scalability", "--grid", "crossed", "--n-range", "3..3",
                    "--hosts", "4", "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "scalability.csv").read_text().strip().split("\n")
        psi = int(lines[1].split(",")[-1])
        want = len(enumerate_paths(make_crossed_grid(3), 1, 9, SHORTEST_PLUS_ONE))
        assert psi == want

    def test_bad_range(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run(["scalability", "--n-range", "1..3", "--out", str(tmp_path)])
        assert exc.value.code == 2


class TestQbd:
    def test_four_state_oracle(self, tmp_path):
        assert run(["qbd", "--c1", "1", "--c2", "1", "--rho", "1",
                    "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "qbd_summary.csv").read_text().strip().split("\n")
        rho, u1, u2, lp = (float(x) for x in lines[1].split(","))
        assert (u1, u2, lp) == pytest.approx((0.4, 0.4, 0.2))

    def test_symmetric_gap_rows(self, tmp_path):
        assert run(["qbd", "--c1", "20", "--c2", "20", "--rho", "0.5,1,2",
                    "--out", str(tmp_path)]) == 0
        rows = (tmp_path / "qbd_gap.csv").read_text().strip().split("\n")[1:]
        by_rho = {}
        for row in rows:
            rho, psi, p = row.split(",")
            by_rho.setdefault(rho, {})[int(psi)] = float(p)
        for gap in by_rho.values():
            for psi in range(1, 21):
                assert gap[psi] == pytest.approx(gap[-psi], abs=1e-12)

    def test_asymmetric_support(self, tmp_path):
        assert run(["qbd", "--c1", "30", "--c2", "20", "--rho", "1",
                    "--out", str(tmp_path)]) == 0
        rows = (tmp_path / "qbd_gap.csv").read_text().strip().split("\n")[1:]
        psis = [int(r.split(",")[1]) for r in rows]
        assert min(psis) == -20 and max(psis) == 30

    def test_overflowing_load_saturates(self, tmp_path, capsys):
        summaries = []
        for method in ("dense", "block_tridiagonal"):
            out = tmp_path / method
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # no overflow on the way
                assert run(["qbd", "--c1", "5", "--c2", "5", "--rho", "1e300",
                            "--method", method, "--out", str(out)]) == 0
            summaries.append(read(out / "qbd_summary.csv"))
        assert capsys.readouterr().err == ""
        assert summaries[0] == summaries[1] == b"rho,u1,u2,lp\n1e+300,1,1,1\n"

    def test_dense_refused_above_the_limit(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run(["qbd", "--c1", "64", "--c2", "64", "--method", "dense",
                    "--out", str(out)]) == 2
        assert "limited to 4096 states" in capsys.readouterr().err
        assert not out.exists()

    def test_rejects_bad_capacity(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run(["qbd", "--c1", "0", "--c2", "1", "--out", str(tmp_path)])
        assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["simulate", "--flows", "-1"],
    ["simulate", "--protocol", "arp_path"],
    ["simulate", "--duration", "nan"],
    ["simulate", "--duration", "inf"],
    ["simulate", "--duration", "0"],
    ["simulate", "--duration", "-5"],
    ["qbd", "--c1", "1", "--c2", "0"],
    ["balance", "--paths", "0"],
    ["balance", "--capacity", "-3"],
    ["balance", "--replications", "0"],
    ["balance", "--duration", "0"],
    ["balance", "--duration", "inf"],
    ["balance", "--paths", "2.5"],
    ["balance", "--rho", "nan"],
    ["balance", "--rho", "inf"],
    ["balance", "--rho", "-1"],
    ["balance", "--rho", "0.5,abc"],
    ["qbd", "--c1", "1", "--c2", "1", "--rho", "nan"],
    ["qbd", "--c1", "1", "--c2", "1", "--rho", "inf"],
    ["qbd", "--c1", "1", "--c2", "1", "--rho", "0"],
    ["qbd", "--c1", "1", "--c2", "1", "--rho", "abc"],
    ["qbd", "--c1", "1", "--c2", "1", "--rho", ""],
    ["scalability", "--n-range", "5..2"],
    ["scalability", "--n-range", "1..3"],
    ["scalability", "--n-range", "2-6"],
    ["scalability", "--hosts", "3"],
    ["scalability", "--hosts", "0"],
    ["scalability", "--hosts", "4,x"],
    ["simulate", "--topology", "grid:x"],
    ["simulate", "--topology", "grid:0"],
    ["simulate", "--topology", "crossed:1"],
    ["simulate", "--topology", "torus:3"],
    ["simulate", "--topology", "sc.json"],
    # an empty item of a comma list is refused, as --hosts 4, is
    ["balance", "--rho", "0.5,"],
    ["qbd", "--c1", "1", "--c2", "1", "--rho", "1,,2"],
])
def test_invalid_value_is_usage_error(tmp_path, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        run(argv + ["--out", str(tmp_path)])
    assert exc.value.code == 2
    assert "error: argument " + argv[-2] in capsys.readouterr().err
    assert not os.listdir(tmp_path)


class TestBalance:
    def test_smoke_exp(self, tmp_path):
        assert run(["balance", "--paths", "2", "--capacity", "20",
                    "--traffic", "exp", "--rho", "0.5", "--replications", "4",
                    "--duration", "5", "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "balance.csv").read_text().strip().split("\n")
        assert lines[0] == "rho,path_id,u,lp,fi,ci_low,ci_high"
        assert len(lines) == 3  # one row per path

    def test_dcmix_fi_near_one(self, tmp_path):
        assert run(["balance", "--paths", "6", "--capacity", "20",
                    "--traffic", "dcmix", "--rho", "0.6", "--replications", "5",
                    "--duration", "2", "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "balance.csv").read_text().strip().split("\n")[1:]
        fi = float(lines[0].split(",")[4])
        assert fi > 0.99

    def test_single_replication_empty_ci(self, tmp_path):
        assert run(["balance", "--paths", "2", "--replications", "1",
                    "--rho", "0.5", "--duration", "2", "--out", str(tmp_path)]) == 0
        row = (tmp_path / "balance.csv").read_text().strip().split("\n")[1]
        fields = row.split(",")
        assert fields[5] == "" and fields[6] == ""

    def test_idle_run_has_empty_fairness_index(self, tmp_path):
        # no flow arrives, so every u is 0 and Jain's index is undefined
        assert run(["balance", "--rho", "1e-9", "--duration", "1", "--replications", "2",
                    "--out", str(tmp_path)]) == 0
        for row in (tmp_path / "balance.csv").read_text().strip().split("\n")[1:]:
            fields = row.split(",")
            assert float(fields[2]) == 0 and fields[4] == ""

    def test_huge_arrival_count_is_refused_at_once(self, tmp_path):
        # rho 1e300 asks for ~4e301 arrivals per replication: the call must
        # fail before the kernel starts, not run without end
        src_dir = os.path.dirname(os.path.dirname(allpath.__file__))
        env = dict(os.environ, PYTHONPATH=src_dir)
        proc = subprocess.run([sys.executable, "-m", "allpath.cli", "balance", "--paths", "2",
                               "--rho", "1e300", "--replications", "1", "--duration", "1",
                               "--out", str(tmp_path)],
                              env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 1
        assert "expected arrivals per replication" in proc.stderr
        assert not (tmp_path / "balance.csv").exists()

    def test_all_fields_finite(self, tmp_path):
        assert run(["balance", "--paths", "3", "--rho", "0.5,1",
                    "--replications", "3", "--duration", "2",
                    "--out", str(tmp_path)]) == 0
        for row in (tmp_path / "balance.csv").read_text().strip().split("\n")[1:]:
            for field in row.split(","):
                if field:
                    assert abs(float(field)) < float("inf")


class TestReplay:
    @pytest.mark.parametrize("argv", [
        ["simulate", "--topology", "grid:2", "--protocol", "flow-path",
         "--seed", "3", "--flows", "3"],
        ["scalability", "--grid", "simple", "--n-range", "2..3", "--hosts", "4,8"],
        ["qbd", "--c1", "5", "--c2", "5", "--rho", "0.5,1"],
        ["balance", "--paths", "2", "--rho", "0.5", "--replications", "3",
         "--duration", "2", "--seed", "9"],
    ])
    def test_replay_byte_identical(self, tmp_path, argv):
        first = tmp_path / "first"
        second = tmp_path / "second"
        assert run(argv + ["--out", str(first)]) == 0
        manifest = json.loads((first / "manifest.json").read_text())
        assert run(["replay", str(first / "manifest.json"),
                    "--out", str(second)]) == 0
        for name in manifest["outputs"]:
            assert read(first / name) == read(second / name), name

    @pytest.mark.parametrize("doc, expected", [
        pytest.param({"subcommand": "qbd", "params": 5},
                     "manifest.params must be an object, not 5", id="params-not-an-object"),
        pytest.param([1, 2], "manifest must be an object, not [1, 2]", id="not-an-object"),
        pytest.param({"subcommand": 7, "params": {}},
                     "manifest.subcommand must be a string, not 7", id="subcommand-not-a-string"),
        pytest.param({"params": {}}, "manifest has no subcommand", id="no-subcommand"),
        # well-typed values that the parser refuses: one line, not usage text
        pytest.param({"subcommand": "bogus", "params": {}},
                     "manifest: argument cmd: invalid choice: 'bogus' (choose from 'simulate', "
                     "'scalability', 'qbd', 'balance', 'replay')", id="unknown-subcommand"),
        pytest.param({"subcommand": "qbd", "params": {"c1": 2, "c2": 2, "rho": [1, 2]}},
                     "manifest: argument --rho: [1, 2] is not a comma list of finite "
                     "numbers > 0", id="rho-a-list"),
        pytest.param({"subcommand": "qbd", "params": {"c2": 2}},
                     "manifest: the following arguments are required: --c1", id="no-c1"),
        pytest.param({"subcommand": "simulate", "params": {"seed": 2.5}},
                     "manifest: argument --seed: invalid int value: '2.5'", id="seed-a-float"),
        pytest.param({"subcommand": "simulate", "params": {"protocol": "arp_path"}},
                     "manifest: argument --protocol: invalid choice: 'arp_path' (choose from "
                     "'arp-path', 'flow-path', 'bridge-path')", id="underscored-protocol"),
        # a key is an option named in full: no help action, no abbreviation
        pytest.param({"subcommand": "qbd", "params": {"c1": 2, "c2": 2, "help": True}},
                     "manifest: unrecognized arguments: --help True", id="help"),
        pytest.param({"subcommand": "qbd", "params": {"c1": 2, "c2": 2, "he": 1}},
                     "manifest: unrecognized arguments: --he 1", id="he"),
        pytest.param({"subcommand": "qbd", "params": {"c1": 2, "c2": 2, "meth": "dense"}},
                     "manifest: unrecognized arguments: --meth dense", id="meth"),
    ])
    def test_malformed_manifest_runtime_error(self, tmp_path, capsys, doc, expected):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps(doc))
        out = tmp_path / "run"
        assert run(["replay", str(manifest), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err == "allpath: error: %s\n" % expected
        assert captured.out == ""
        assert not out.exists()

    def test_replay_of_a_deleted_scenario_runtime_error(self, tmp_path, capsys):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps({"topology": "diamond", "flows": []}))
        first = tmp_path / "first"
        assert run(["simulate", "--scenario", str(scenario), "--out", str(first)]) == 0
        scenario.unlink()
        second = tmp_path / "second"
        assert run(["replay", str(first / "manifest.json"), "--out", str(second)]) == 1
        assert "scenario.json" in capsys.readouterr().err
        assert not second.exists()

    def test_replay_from_another_directory_byte_identical(self, tmp_path, monkeypatch):
        # the manifest records --scenario as an absolute path, so a replay
        # reads the same file from any working directory
        here, there = tmp_path / "a", tmp_path / "b"
        here.mkdir()
        there.mkdir()
        (here / "sc.json").write_text(json.dumps({
            "topology": "diamond", "protocol": "flow-path", "seed": 3,
            "flows": [{"src": "A", "dst": "B", "size_bits": 12000, "start_time": 0.0}],
        }))
        first, second = tmp_path / "first", tmp_path / "second"
        monkeypatch.chdir(here)
        assert run(["simulate", "--scenario", "sc.json", "--out", str(first)]) == 0
        manifest = json.loads((first / "manifest.json").read_text())
        recorded = manifest["params"]["scenario"]
        assert os.path.isabs(recorded) and os.path.samefile(recorded, here / "sc.json")
        monkeypatch.chdir(there)
        assert run(["replay", str(first / "manifest.json"), "--out", str(second)]) == 0
        for name in manifest["outputs"]:
            assert read(first / name) == read(second / name), name

    def test_manifest_of_a_replay_runtime_error(self, tmp_path, capsys, monkeypatch):
        # a "" key rebuilds as "--", which makes its value a manifest to replay,
        # here the manifest itself
        (tmp_path / "manifest.json").write_text(json.dumps(
            {"subcommand": "replay", "params": {"": "manifest.json"}}))
        monkeypatch.chdir(tmp_path)
        assert run(["replay", "manifest.json"]) == 1
        assert capsys.readouterr().err == \
            "allpath: error: manifest: a manifest records a run, not a replay\n"
        assert os.listdir(tmp_path) == ["manifest.json"]

    def test_dense_refusal_on_replay_is_usage_error(self, tmp_path, capsys):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"subcommand": "qbd", "params": {
            "c1": 64, "c2": 64, "method": "dense"}}))
        out = tmp_path / "run"
        assert run(["replay", str(manifest), "--out", str(out)]) == 2
        assert "limited to 4096 states" in capsys.readouterr().err
        assert not out.exists()

    def test_replay_enters_main_once(self, tmp_path, monkeypatch):
        # main runs the namespace the manifest parses to, as it runs any command
        first, second = tmp_path / "first", tmp_path / "second"
        assert run(["qbd", "--c1", "2", "--c2", "2", "--out", str(first)]) == 0
        calls = []

        def counting_main(argv=None):
            calls.append(argv)
            return main(argv)

        monkeypatch.setattr(cli, "main", counting_main)
        assert cli.main(["replay", str(first / "manifest.json"), "--out", str(second)]) == 0
        assert len(calls) == 1
        assert read(first / "qbd_gap.csv") == read(second / "qbd_gap.csv")

    def test_scenario_manifest_fields(self, tmp_path):
        # the seed that ran is the scenario's; the manifest does not repeat one
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps({"topology": "diamond", "seed": 3, "flows": [
            {"src": "A", "dst": "B", "size_bits": 12000, "start_time": 0.0}]}))
        assert run(["simulate", "--scenario", str(scenario), "--out", str(tmp_path)]) == 0
        doc = json.loads((tmp_path / "manifest.json").read_text())
        assert sorted(doc) == ["outputs", "params", "subcommand", "version", "wall_clock_s"]
        assert doc["params"]["scenario"] == str(scenario)

    def test_manifest_records_run(self, tmp_path):
        assert run(["qbd", "--c1", "2", "--c2", "2", "--out", str(tmp_path)]) == 0
        doc = json.loads((tmp_path / "manifest.json").read_text())
        assert doc["subcommand"] == "qbd"
        assert doc["outputs"] == ["qbd_gap.csv", "qbd_summary.csv"]
        assert doc["wall_clock_s"] >= 0


def test_readme_cli_block_runs(tmp_path, monkeypatch):
    """Each `allpath` line of README's CLI code block exits 0, in order, replay included."""
    with open(os.path.join(os.path.dirname(os.path.dirname(__file__)), "README.md")) as fh:
        section = fh.read().split("\n## CLI\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line for line in block.splitlines() if line.startswith("allpath ")]
    assert [line.split()[1] for line in lines] == [
        "simulate", "scalability", "qbd", "balance", "replay"]
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("ALLPATH_OUTDIR", raising=False)
    for line in lines:
        assert main(shlex.split(line)[1:]) == 0, line
