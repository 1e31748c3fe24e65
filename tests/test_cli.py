import json

import pytest

from .conftest import run_brim as brim

SPEC = {
    "ring": {"field": "QQ", "d": 2, "p": 1},
    "modules": {
        "m": {"tdeg": 1, "gens": ["x1*t1", "x2*t1"]},
        "I": {"tdeg": 1, "gens": ["x1^2*t1", "x2*t1"]},
        "m2": {"tdeg": 1, "gens": ["x1^2*t1", "x1*x2*t1", "x2^2*t1"]},
        "U": {"tdeg": 1, "gens": ["x1^2*t1", "x2^2*t1"]},
    },
    "elements": {"a1": "x1*t1", "a2": "x2*t1", "b1": "x1^2*t1", "bad": "x1*t1 + x2^2*t1"},
}


@pytest.fixture
def specfile(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(SPEC))
    return str(path)


def payload(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)["payload"]


def golden(proc):
    doc = json.loads(proc.stdout)
    doc.pop("runtime")
    return json.dumps(doc, sort_keys=True)


def test_length_command(specfile, tmp_path):
    proc = brim("length", specfile, "-m", "I", "-n", "1", cwd=tmp_path)
    assert payload(proc)["length"] == 2
    proc = brim("length", specfile, "-m", "m,I", "-n", "1,1", cwd=tmp_path)
    assert payload(proc)["length"] == 4


def test_length_missing_module_exit_2(specfile, tmp_path):
    proc = brim("length", specfile, "-m", "nope", "-n", "1", cwd=tmp_path)
    assert proc.returncode == 2, proc.stderr


@pytest.mark.parametrize(
    "p, gens",
    [(1, ["x1^2*t1", "x1*x2*t1", "x2^2*t1"]), (2, ["x1*t1", "x2*t1", "x1*t2", "x2*t2"])],
    ids=["p1", "p2"],
)
def test_length_with_negative_q_exit_2(tmp_path, p, gens):
    spec = {"ring": {"field": "QQ", "d": 2, "p": p}, "modules": {"E": {"tdeg": 1, "gens": gens}}}
    path = tmp_path / "s.json"
    path.write_text(json.dumps(spec))
    proc = brim("length", str(path), "-m", "E", "-n", "1", "-q", "-1", cwd=tmp_path)
    assert proc.returncode == 2, (proc.stdout, proc.stderr)
    assert "q must be non-negative" in proc.stderr


def test_ebr_command(specfile, tmp_path):
    proc = brim("ebr", specfile, "-m", "m", cwd=tmp_path)
    doc = payload(proc)
    assert doc["value"] == 1
    assert doc["table"]["values"][0] == 1


def test_mixed_command(specfile, tmp_path):
    proc = brim("mixed", specfile, "-m", "m,I", "-d", "1,1", cwd=tmp_path)
    assert payload(proc)["value"] == 1


def test_tilde_ebr_command(specfile, tmp_path):
    proc = brim("tilde-ebr", specfile, "-m", "I", cwd=tmp_path)
    assert payload(proc)["value"] == 2


def test_assoc_command(tmp_path):
    spec = {
        "ring": {"field": "QQ", "d": 2, "p": 2},
        "modules": {"mF": {"tdeg": 1, "gens": ["x1*t1", "x2*t1", "x1*t2", "x2*t2"]}},
    }
    path = tmp_path / "s.json"
    path.write_text(json.dumps(spec))
    proc = brim("assoc", str(path), "-m", "mF", "-d", "2", "-j", "1", cwd=tmp_path)
    assert payload(proc)["value"] == 1


def test_gmult_command(specfile, tmp_path):
    proc = brim("gmult", specfile, "-e", "a1,a2", cwd=tmp_path)
    assert payload(proc)["value"] == 1
    proc = brim("gmult", specfile, "-e", "b1,a2", cwd=tmp_path)
    assert payload(proc)["value"] == 2


def test_gmult_non_bihomogeneous_exit_2(specfile, tmp_path):
    proc = brim("gmult", specfile, "-e", "bad,a2", cwd=tmp_path)
    assert proc.returncode == 2, proc.stderr


def test_check_reduction(specfile, tmp_path):
    proc = brim("check", "reduction", specfile, "-u", "U", "-m", "m2", "--nmax", "6", cwd=tmp_path)
    dec = payload(proc)["decision"]
    assert dec["verdict"] == "true" and dec["witness_n0"] == 1


def test_check_converse(specfile, tmp_path):
    proc = brim("check", "converse", specfile, "-x", "a1,a2", "-m", "m,m", cwd=tmp_path)
    crit = payload(proc)["criterion"]
    assert crit["consistent"] is True
    assert crit["lhs"]["value"] == crit["rhs"]["value"] == 1


def test_check_superficial(specfile, tmp_path):
    proc = brim("check", "superficial", specfile, "-x", "a1", "-m", "m", cwd=tmp_path)
    assert payload(proc)["decision"]["verdict"] == "true"


def test_check_superficial_in_the_degree_two_slice(tmp_path):
    spec = {
        "ring": {"field": "QQ", "d": 2, "p": 1},
        "modules": {"E": {"tdeg": 2, "gens": ["x1*t1^2", "x2*t1^2"]}},
        "elements": {"h": "x1*t1^2 + x2*t1^2"},
    }
    path = tmp_path / "s.json"
    path.write_text(json.dumps(spec))
    proc = brim("check", "superficial", str(path), "-x", "h", "-m", "E", cwd=tmp_path)
    assert payload(proc)["decision"]["verdict"] == "true"


def test_check_joint(specfile, tmp_path):
    proc = brim("check", "joint", specfile, "-x", "a1,a2", "-m", "m,m", cwd=tmp_path)
    assert payload(proc)["decision"]["verdict"] == "true"


def test_check_risler(specfile, tmp_path):
    proc = brim("check", "risler", specfile, "-m", "m", "-d", "2", "--seed", "0", cwd=tmp_path)
    crit = payload(proc)["criterion"]
    assert crit["consistent"] is True
    assert set(crit["values_by_seed"].values()) == {1}


def test_check_unknown_kind_exit_2(specfile, tmp_path):
    proc = brim("check", "bogus", specfile, cwd=tmp_path)
    assert proc.returncode == 2, proc.stderr


def test_golden_reports_stable_across_runs(specfile, tmp_path):
    a = brim("ebr", specfile, "-m", "m", cwd=tmp_path)
    b = brim("ebr", specfile, "-m", "m", cwd=tmp_path)
    assert golden(a) == golden(b)


def test_golden_stable_across_thread_counts(specfile, tmp_path):
    a = brim("mixed", specfile, "-m", "m,I", "-d", "1,1", "--threads", "1", cwd=tmp_path)
    b = brim("mixed", specfile, "-m", "m,I", "-d", "1,1", "--threads", "4", cwd=tmp_path)
    assert golden(a) == golden(b)


def test_cache_warm_vs_cold(specfile, tmp_path):
    cold = brim("mixed", specfile, "-m", "m,I", "-d", "1,1", cwd=tmp_path)
    assert (tmp_path / ".brim-cache").is_dir()
    warm = brim("mixed", specfile, "-m", "m,I", "-d", "1,1", cwd=tmp_path)
    off = brim(
        "mixed", specfile, "-m", "m,I", "-d", "1,1", cwd=tmp_path, env_extra={"BRIM_CACHE": "off"}
    )
    assert golden(cold) == golden(warm) == golden(off)


def test_vector_form_generators(tmp_path):
    spec = {
        "ring": {"field": "QQ", "d": 2, "p": 2},
        "modules": {
            "mF": {
                "tdeg": 1,
                "gens": [["x1", "0"], ["x2", "0"], ["0", "x1"], ["0", "x2"]],
            }
        },
    }
    path = tmp_path / "s.json"
    path.write_text(json.dumps(spec))
    proc = brim("ebr", str(path), "-m", "mF", cwd=tmp_path)
    assert payload(proc)["value"] == 3


def test_gf_field_spec(tmp_path):
    spec = {
        "ring": {"field": {"GF": 32003}, "d": 2, "p": 1},
        "modules": {"m": {"tdeg": 1, "gens": ["x1*t1", "x2*t1"]}},
    }
    path = tmp_path / "s.json"
    path.write_text(json.dumps(spec))
    proc = brim("ebr", str(path), "-m", "m", cwd=tmp_path)
    assert payload(proc)["value"] == 1


def test_malformed_specfile_exit_2(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    proc = brim("ebr", str(path), "-m", "m", cwd=tmp_path)
    assert proc.returncode == 2, proc.stderr


def test_check_mn_joint(specfile, tmp_path):
    proc = brim("check", "mn-joint", specfile, "-x", "a1,a2", "-n", "1", cwd=tmp_path)
    assert payload(proc)["decision"]["verdict"] == "true"


def test_check_rees_cli(specfile, tmp_path):
    proc = brim("check", "rees", specfile, "-u", "U", "-m", "m2", cwd=tmp_path)
    crit = payload(proc)["criterion"]
    assert crit["consistent"] is True and crit["lhs"]["value"] == 4


def test_sampling_failure_exit_3(specfile, tmp_path):
    # generic samples for the family (m, (x^2, y)) vanish off the origin,
    # so sampling exhausts its attempts and the CLI reports a limit
    proc = brim("check", "risler", specfile, "-m", "m,I", "-d", "1,1", cwd=tmp_path)
    assert proc.returncode == 3, proc.stderr
    assert "superficial" in proc.stderr.lower() or "primarity" in proc.stderr.lower()


def test_internal_error_exit_4(specfile, monkeypatch, capsys):
    from brim import InternalError, cli

    def broken(*args, **kwargs):
        raise InternalError("invariant broken")

    monkeypatch.setattr(cli, "is_reduction", broken)
    code = cli.main(["check", "reduction", specfile, "-u", "U", "-m", "m2"])
    assert code == 4
    assert "internal error: invariant broken" in capsys.readouterr().err



@pytest.fixture
def cli_in_tmp(tmp_path, monkeypatch):
    """brim.cli with the cache on and ./.brim-cache under tmp_path."""
    from brim import cli

    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("BRIM_CACHE", raising=False)
    return cli


def test_cache_entry_of_other_code_is_recomputed(cli_in_tmp, tmp_path, monkeypatch):
    from brim import hilbert

    cli = cli_in_tmp
    spec = cli.SpecFile(SPEC)
    command = {"subcommand": "ebr", "modules": ["m"]}
    calls = []

    def compute():
        calls.append(1)
        return cli.ebr(spec.module("m"))

    def run():
        return cli.cached_multiplicity(spec, command, {"type": "ebr"}, (2,), compute).value

    assert run() == run() == 1
    assert len(calls) == 1  # the second run was served from the cache
    monkeypatch.setattr(cli, "__version__", "0.0.0+other")
    assert run() == 1
    assert len(calls) == 2
    monkeypatch.setattr(hilbert, "N_MAX", 13)
    assert run() == 1
    assert len(calls) == 3
    assert len(list((tmp_path / ".brim-cache").glob("*.json"))) == 3
    # the report's inputs_hash names only the inputs
    assert cli.cache_key(spec, command) != cli.cache_entry_key(spec, command)


def test_failed_cache_write_leaves_no_entry(cli_in_tmp, tmp_path, monkeypatch):
    cli = cli_in_tmp
    spec = cli.SpecFile(SPEC)
    key = cli.cache_entry_key(spec, {"subcommand": "ebr", "modules": ["m"]})
    table = cli.ebr(spec.module("m")).table
    dump = cli.json.dump

    def failing_dump(obj, fh, **kwargs):
        fh.write('{"axes": [')
        raise OSError("no space left on device")

    monkeypatch.setattr(cli.json, "dump", failing_dump)
    cli.cache_store_table(key, table)
    assert list((tmp_path / ".brim-cache").iterdir()) == []
    monkeypatch.setattr(cli.json, "dump", dump)
    cli.cache_store_table(key, table)
    assert [p.name for p in (tmp_path / ".brim-cache").iterdir()] == [f"{key}.json"]
    assert cli.cache_load_table(key).to_json() == table.to_json()


@pytest.mark.parametrize("corruption", ["values-short", "values-long", "not-an-object"])
def test_malformed_cache_entry_is_a_miss(specfile, tmp_path, corruption):
    on = {"BRIM_CACHE": "on"}
    cold = payload(brim("ebr", specfile, "-m", "I", cwd=tmp_path, env_extra=on))
    [entry] = (tmp_path / ".brim-cache").glob("*.json")
    written = entry.read_text()
    doc = json.loads(written)
    if corruption == "values-short":
        doc["values"] = doc["values"][:-1]
    elif corruption == "values-long":
        doc["values"].append(doc["values"][-1])
    else:
        doc = [1, 2]
    entry.write_text(json.dumps(doc))
    proc = brim("ebr", specfile, "-m", "I", cwd=tmp_path, env_extra=on)
    assert proc.returncode == 0, proc.stderr
    assert payload(proc) == cold
    assert entry.read_text() == written  # recomputed and written back


@pytest.mark.parametrize(
    "module, elements, message",
    [
        ({"tdeg": "x", "gens": ["x1*t1"]}, {}, "tdeg 'x' is not an integer"),
        (["x1*t1", "x2*t1"], {}, "expected an object"),
        ({"tdeg": 1, "gens": ["x1*t1", "x2*t1"]}, {"f": 7}, "7 is not a polynomial string"),
        ({"tdeg": 1, "gens": ["x1*t1", 7]}, {}, "generator 7 is neither"),
        ({"tdeg": 1.5, "gens": ["x1*t1", "x2*t1"]}, {}, "tdeg 1.5 is not an integer"),
        ({"tdeg": True, "gens": ["x1*t1", "x2*t1"]}, {}, "tdeg True is not an integer"),
    ],
    ids=[
        "tdeg-not-int",
        "module-as-list",
        "element-as-number",
        "generator-as-number",
        "tdeg-float",
        "tdeg-bool",
    ],
)
def test_malformed_spec_block_exit_2(tmp_path, module, elements, message):
    spec = {"ring": {"field": "QQ", "d": 2, "p": 1}, "modules": {"m": module}, "elements": elements}
    path = tmp_path / "s.json"
    path.write_text(json.dumps(spec))
    proc = brim("ebr", str(path), "-m", "m", cwd=tmp_path, env_extra={"BRIM_CACHE": "off"})
    assert proc.returncode == 2, proc.stderr
    assert message in proc.stderr


@pytest.mark.parametrize(
    "ring, message",
    [
        ({"field": "QQ", "d": 2.9, "p": 1}, "d 2.9 is not an integer"),
        ({"field": "QQ", "d": 2, "p": True}, "p True is not an integer"),
        ({"field": {"GF": 32003.7}, "d": 2, "p": 1}, "field spec 32003.7"),
    ],
    ids=["d-float", "p-bool", "GF-float"],
)
def test_non_integer_ring_number_exit_2(tmp_path, ring, message):
    spec = {"ring": ring, "modules": {"m": {"tdeg": 1, "gens": ["x1*t1", "x2*t1"]}}}
    path = tmp_path / "s.json"
    path.write_text(json.dumps(spec))
    proc = brim("ebr", str(path), "-m", "m", cwd=tmp_path, env_extra={"BRIM_CACHE": "off"})
    assert proc.returncode == 2, proc.stderr
    assert message in proc.stderr


@pytest.mark.parametrize(
    "argv, message",
    [
        ("check reduction SPEC -u U", "requires at least one module (-m)"),
        ("check reduction SPEC -m m2", "requires at least one module (-u)"),
        ("check rees SPEC -u U", "requires at least one module (-m)"),
        ("check superficial SPEC -m m", "requires at least one element (-x)"),
        ("check superficial SPEC -x a1 -m m --c1 -1", "c1 must be non-negative"),
        ("check reduction SPEC -u U -m m2 --nmax 0", "n_max must be >= 1"),
        ("check joint SPEC -x a1,a2 -m m,m --nmax -2", "n_max must be >= 1"),
        ("gmult SPEC -e a1,a2 -t -3", "t must be non-negative"),
        ("length SPEC -m m -n 1,x", "-n '1,x' is not a comma list of integers"),
        ("check risler SPEC -m m -d 1.5", "-d '1.5' is not a comma list of integers"),
        ("gmult SPEC -e a1 -t x", "-t 'x' is not a comma list of integers"),
        ("assoc SPEC -m m -d 1 -j x", "-j 'x' is not a comma list of integers"),
        ("check risler SPEC", "need at least one module"),
        ("mixed SPEC -m , -d ,", "need at least one module"),
        ("assoc SPEC -m , -d , -j 2", "need at least one module"),
    ],
    ids=[
        "reduction-without-m",
        "reduction-without-u",
        "rees-without-m",
        "superficial-without-x",
        "superficial-negative-c1",
        "reduction-nmax-zero",
        "joint-nmax-negative",
        "gmult-negative-t",
        "length-n-not-int",
        "risler-d-not-int",
        "gmult-t-not-int",
        "assoc-j-not-int",
        "risler-without-modules",
        "mixed-without-modules",
        "assoc-without-modules",
    ],
)
def test_malformed_arguments_exit_2(specfile, tmp_path, argv, message):
    args = [specfile if a == "SPEC" else a for a in argv.split()]
    proc = brim(*args, cwd=tmp_path, env_extra={"BRIM_CACHE": "off"})
    assert proc.returncode == 2, proc.stderr
    assert message in proc.stderr


def test_a_degree_at_the_slot_base_exit_3(tmp_path):
    """x1^65536 does not fit a 16-bit slot: a limit, never a wrapped code."""
    spec = {
        "ring": {"field": "QQ", "d": 2, "p": 1},
        "modules": {"big": {"tdeg": 1, "gens": ["x1^65536*t1", "x2*t1"]}},
    }
    path = tmp_path / "s.json"
    path.write_text(json.dumps(spec))
    proc = brim("ebr", str(path), "-m", "big", cwd=tmp_path)
    assert proc.returncode == 3, (proc.stdout, proc.stderr)
    assert "degree 65536 reaches the slot base 65536" in proc.stderr


def test_a_high_colength_module_of_small_degree_passes_the_gate(tmp_path):
    """m^400 over R21 has colength 80200, above the slot base 65536, and
    generators of degree 400: the primarity gate needs no monomial of degree
    80200, so its length is an answer, not a limit."""
    gens = [f"x1^{400 - k}*x2^{k}*t1" for k in range(401)]
    spec = {
        "ring": {"field": {"GF": 32003}, "d": 2, "p": 1},
        "modules": {"M": {"tdeg": 1, "gens": gens}},
    }
    path = tmp_path / "s.json"
    path.write_text(json.dumps(spec))
    proc = brim("length", str(path), "-m", "M", "-n", "1", cwd=tmp_path)
    assert payload(proc)["length"] == 80200
