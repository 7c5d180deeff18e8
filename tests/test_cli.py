import json
import subprocess
import sys

import pytest

from voacensus import cli, gf2code, registry, transpo
from voacensus.census import IsingCensus

RUN = [sys.executable, "-m", "voacensus.cli"]


def invoke(args):
    proc = subprocess.run(RUN + args, capture_output=True, text=True)
    return proc.returncode, proc.stdout


def invoke_json(args):
    code, out = invoke(args)
    return code, json.loads(out)


def test_census_code_report():
    code, data = invoke_json(["census", "code", "rm24"])
    assert code == 0
    assert data["results"]["count"] == 496
    assert data["results"]["frames"] == 16
    assert data["results"]["hamming_points"] == 480


def test_census_commutant_report():
    code, data = invoke_json(
        ["census", "commutant", "E8", "--orthogonal-to", "wtilde"])
    assert code == 0
    assert data["results"]["count"] == 255


def test_group_report():
    code, data = invoke_json(["group", "--census", "me7"])
    assert code == 0
    res = data["results"]
    assert res["point_count"] == 63
    assert res["group_order"] == "1451520"
    assert res["is_3transposition"] is True
    assert res["symplectic_type"] is True


def test_characters_verify_exit_codes():
    code, data = invoke_json(["characters", "verify", "--cutoff", "4"])
    assert code == 0
    assert data["ok"] is True
    assert data["results"]["failures"] == []


def test_characters_empty_cutoff_via_env(monkeypatch):
    import os
    env = dict(**__import__("os").environ, VOA_CUTOFF="4")
    proc = subprocess.run(RUN + ["characters", "show", "minimal:1:1:1"],
                          capture_output=True, text=True, env=env)
    data = json.loads(proc.stdout)
    assert data["results"]["terms"][-1][0] == "4"


def test_usage_error_exit_2():
    code, out = invoke(["census", "code", "no_such_tag"])
    assert code == 2
    code2, _ = invoke(["bogus-subcommand"])
    assert code2 == 2


def test_seed_has_no_effect_and_deterministic():
    _, a = invoke(["--seed", "1", "group", "--census", "ma3"])
    _, b = invoke(["--seed", "99", "group", "--census", "ma3"])
    da, db = json.loads(a), json.loads(b)
    da.pop("wall_time_s"), db.pop("wall_time_s")
    assert da == db


def test_byte_determinism_modulo_walltime():
    _, a = invoke_json(["census", "lattice", "E6", "--gram"])
    _, b = invoke_json(["census", "lattice", "E6", "--gram"])
    a.pop("wall_time_s"), b.pop("wall_time_s")
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_code_file_roundtrip(tmp_path):
    text = gf2code.format_code_text(gf2code.hamming8_code())
    for name in ("code.txt", "Hamming8.TXT"):
        path = tmp_path / name
        path.write_text(text)
        code, data = invoke_json(["census", "code", f"file:{path}"])
        assert code == 0
        assert data["results"]["count"] == 24
    # only the tag prefix is case-insensitive, never the path
    code, data = invoke_json(["census", "code", f"FILE:{tmp_path / 'Hamming8.TXT'}"])
    assert code == 0


def test_missing_code_file_is_usage_error(tmp_path):
    proc = subprocess.run(RUN + ["census", "code", f"file:{tmp_path / 'absent.txt'}"],
                          capture_output=True, text=True)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    data = json.loads(proc.stdout)
    assert data["ok"] is False and "absent.txt" in data["error"]


def test_frame_vector_index_out_of_range():
    # E8 has 120 root pairs: valid indices are 0..119
    for bad in ("w+:-1", "w-:120", "w+:999"):
        proc = subprocess.run(RUN + ["griess", "inner", "E8", bad, "w+:0"],
                              capture_output=True, text=True)
        assert proc.returncode == 2, bad
        assert "Traceback" not in proc.stderr
        data = json.loads(proc.stdout)
        assert data["ok"] is False and "outside 0..119" in data["error"]
    code, data = invoke_json(["griess", "inner", "E8", "w+:119", "w+:119"])
    assert code == 0 and data["results"]["inner"] == "1/4"


@pytest.mark.parametrize("obj", ["vplus", "vplus:", "minimal:1:1", "man:4"])
def test_series_object_field_count_is_usage_error(obj):
    proc = subprocess.run(RUN + ["characters", "show", obj],
                          capture_output=True, text=True)
    assert proc.returncode == 2, obj
    assert "Traceback" not in proc.stderr
    data = json.loads(proc.stdout)
    assert data["ok"] is False and data["error"]


def test_empty_lattice_tag_is_usage_error():
    proc = subprocess.run(RUN + ["griess", "build", ""],
                          capture_output=True, text=True)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    data = json.loads(proc.stdout)
    assert data["ok"] is False and "empty lattice tag" in data["error"]


def test_failed_sigma_check_exits_1(monkeypatch):
    good = registry.census("ma3")
    elems = list(good.elements)
    elems[0], elems[1] = elems[1], elems[0]
    swapped = IsingCensus(good.points, elems, good.gram, "swapped",
                          algebra=good.algebra)
    with pytest.raises(transpo.SigmaCheckError, match="Gram"):
        transpo.sigma_permutations(swapped)
    dropped = good.subcensus(range(1, len(good)), "dropped")
    with pytest.raises(transpo.SigmaCheckError, match="not closed"):
        transpo.sigma_permutations(dropped)
    # an unknown spec keeps the cached tables of real censuses out of play
    monkeypatch.setattr(registry, "census", lambda spec: swapped)
    assert cli.main(["group", "--census", "swapped"]) == 1


def test_tsv_format():
    code, out = invoke(["--format", "tsv", "griess", "build", "A2"])
    assert code == 0
    assert "results.dimension\t6" in out


def test_griess_product_inner():
    code, data = invoke_json(["griess", "inner", "E8", "wtilde", "phi:alpha0"])
    assert code == 0
    assert data["results"]["inner"] == "1/32"
    code, data = invoke_json(["griess", "commutant", "E7", "wtilde"])
    assert data["results"]["dimension"] == 63


def test_griess_verify_subcommands():
    code, data = invoke_json(["griess", "verify", "twist-chain"])
    assert code == 0 and data["ok"] is True
    code, data = invoke_json(["griess", "verify", "orthogonal-split"])
    assert code == 0 and data["ok"] is True


def test_main_in_process():
    assert cli.main(["census", "lattice", "A2"]) == 0
    assert cli.main(["census", "code", "unknown!"]) == 2


def test_code_emission_roundtrip(tmp_path):
    path = tmp_path / "out.txt"
    code, _ = invoke(["--output", str(path), "code", "rm14"])
    assert code == 0
    parsed = gf2code.parse_code_text(path.read_text())
    assert parsed == gf2code.named_code("reed_muller", 1, 4)
