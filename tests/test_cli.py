import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from voacensus import census, cli, dynkin, gf2code, registry, transpo
from voacensus.census import IsingCensus
from voacensus.griess import GriessAlgebra, SigmaImageError

import census_oracle

RUN = [sys.executable, "-m", "voacensus.cli"]
# exit code and JSON minus wall_time_s of griess product/commutant reports on
# lattices of rank below their ambient dimension, as the solver-based
# coordinates produced them before the Gram-inverse ones
GRIESS_PINS = json.loads(
    (Path(__file__).resolve().parent / "griess_pins.json").read_text())
# exit code and report text minus its wall_time_s line of the group, fischer
# and code census reports on the code censuses and a direct sum, as they
# were before their sigma-tables were gathered from their sources
CENSUS_PINS = json.loads(
    (Path(__file__).resolve().parent / "census_pins.json").read_text())
WALL_TIME = re.compile(r',\n[ \t]*"wall_time_s": [-+0-9.eE]+(?=\n)')


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


@pytest.mark.parametrize("spec, seeds", [("code:rm24", 10), ("uc", 9)])
def test_group_chain_runs_on_the_seed_rows(spec, seeds, monkeypatch):
    table = registry.sigma_table(spec)
    order = transpo.group_order
    calls = []

    def recording(perms):
        calls.append(perms)
        return order(perms)

    monkeypatch.setattr(transpo, "group_order", recording)
    assert cli.main(["group", "--census", spec]) == 0
    assert len(calls) == 1 and len(table.seeds) == seeds
    assert np.array_equal(calls[0], table.rows[table.seeds])


@pytest.mark.parametrize("spec", ["commutant:A2:s", "commutant:D4:s,wtilde"])
def test_group_of_empty_census_is_trivial(spec):
    code, data = invoke_json(["group", "--census", spec])
    assert code == 0
    res = data["results"]
    assert res["group_order"] == "1" and res["point_count"] == 0
    assert res["is_3transposition"] is True


def test_characters_verify_exit_codes():
    code, data = invoke_json(["characters", "verify", "--cutoff", "4"])
    assert code == 0
    assert data["ok"] is True
    assert data["results"]["failures"] == []


def test_characters_verify_cutoff_zero():
    # the q^2 dimension checks need series valid past exponent 2
    code, data = invoke_json(["characters", "verify", "--cutoff", "0"])
    assert code == 0
    checks = data["results"]["checks"]
    assert len(checks) == 21
    assert all(c["status"] == "pass" for c in checks)
    assert data["results"]["failures"] == []


@pytest.mark.parametrize("args,exit_code", [
    (["characters", "show", "minimal:0:1:1"], 0),
    (["census", "code", "no_such_tag"], 2),
])
def test_closed_stdout_exits_without_traceback(args, exit_code):
    proc = subprocess.Popen(RUN + args, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    # the reader goes away before the report is written
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == exit_code
    assert "Traceback" not in err
    assert "BrokenPipeError" not in err


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
    # an empty or blank code file has no header line
    for name, text in (("empty.txt", ""), ("blank.txt", "  \n\n \n")):
        (tmp_path / name).write_text(text)
        proc = subprocess.run(RUN + ["code", f"file:{tmp_path / name}"],
                              capture_output=True, text=True)
        assert proc.returncode == 2, name
        assert "Traceback" not in proc.stderr
        data = json.loads(proc.stdout)
        assert data["ok"] is False and "empty" in data["error"]


def test_unwritable_output_is_usage_error(tmp_path):
    for out in (tmp_path, tmp_path / "absent" / "report.json"):
        proc = subprocess.run(RUN + ["--output", str(out), "code", "rm14"],
                              capture_output=True, text=True)
        assert proc.returncode == 2, out
        assert "Traceback" not in proc.stderr
        data = json.loads(proc.stdout)
        assert data["ok"] is False and str(out) in data["error"]
    assert not (tmp_path / "absent").exists()


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


@pytest.mark.parametrize("args,cutoff_env", [
    (["characters", "show", "vplus:E8", "--cutoff", "-3"], None),
    (["characters", "show", "vplus:E8"], "-3"),
    (["characters", "show", "man:0:0"], None),
    (["characters", "show", "man:-1:0"], None),
    (["characters", "show", "affine:-1:0"], None),
])
def test_bad_character_input_is_usage_error(args, cutoff_env):
    env = {k: v for k, v in os.environ.items() if k != "VOA_CUTOFF"}
    if cutoff_env is not None:
        env["VOA_CUTOFF"] = cutoff_env
    proc = subprocess.run(RUN + args, capture_output=True, text=True, env=env)
    assert proc.returncode == 2, args
    assert "Traceback" not in proc.stderr
    data = json.loads(proc.stdout)
    assert data["ok"] is False and data["error"]


@pytest.mark.parametrize("cutoff", [cli.MAX_CUTOFF + 1, 10 ** 12])
@pytest.mark.parametrize("obj", ["minimal:1:1:1", "w:2:0:0"])
@pytest.mark.parametrize("via_env", [False, True])
def test_cutoff_above_ceiling_is_usage_error(cutoff, obj, via_env):
    env = {k: v for k, v in os.environ.items() if k != "VOA_CUTOFF"}
    args = ["characters", "show", obj]
    if via_env:
        env["VOA_CUTOFF"] = str(cutoff)
    else:
        args += ["--cutoff", str(cutoff)]
    proc = subprocess.run(RUN + args, capture_output=True, text=True, env=env,
                          timeout=60)
    assert proc.returncode == 2
    assert proc.stderr == ""
    data = json.loads(proc.stdout)
    assert data["ok"] is False and "ceiling" in data["error"]


def test_lattice_rank_above_ceiling_is_usage_error(capsys):
    # refused from the tag alone: no Cartan matrix is built
    t0 = time.perf_counter()
    assert cli.main(["characters", "show", "vfull:A1200", "--cutoff", "2"]) == 2
    assert time.perf_counter() - t0 < 1
    data = json.loads(capsys.readouterr().out)
    assert data["ok"] is False
    assert data["error"] == "lattice A1200 has rank 1200, above the ceiling 32"
    assert cli.main(["characters", "show", f"vplus:D{cli.MAX_RANK + 1}"]) == 2
    assert "above the ceiling" in json.loads(capsys.readouterr().out)["error"]


def test_lattice_rank_ceiling_admits_the_catalog():
    catalog = [f"A{n}" for n in range(1, 9)] + [f"D{n}" for n in range(2, 13)]
    catalog += ["E6", "E7", "E8", "E8H", "D4C", "D6C", "D8C", "D30"]
    assert max(dynkin.lattice_type(tag)[1] for tag in catalog) <= cli.MAX_RANK
    assert cli.main(["characters", "show", f"vfull:A{cli.MAX_RANK}",
                     "--cutoff", "2"]) == 0


@pytest.mark.parametrize("args", [["griess", "build", "D200"],
                                  ["census", "lattice", "D40"]])
def test_oversized_algebra_is_refused_before_its_lattice(args):
    # the dimension comes from the tag's type; D200's lattice alone would
    # take minutes to build
    proc = subprocess.run(RUN + args, capture_output=True, text=True, timeout=1)
    assert proc.returncode == 2
    data = json.loads(proc.stdout)
    assert data["ok"] is False and data["error"].endswith("exceeds guard 512")


def test_negative_degree_is_usage_error():
    code, data = invoke_json(["characters", "show", "minimal:-1:1:1"])
    assert code == 2
    assert data["error"] == "degree -1 is negative"


def test_numpy_free_commands():
    # a fresh interpreter: numpy stays unloaded where no array is needed, and
    # no characters job, failed or not, loads the code module
    script = """
import contextlib, io, sys
from voacensus import cli
assert "numpy" not in sys.modules, "import"
for argv, code in ((["characters", "show", "man:6:4"], 0),
                   (["characters", "show", "minimal:2:1:3"], 0),
                   (["characters", "show", "w:4:1:3"], 0),
                   (["characters", "show", "affine:2:1"], 0),
                   (["characters", "verify", "--cutoff", "4"], 0),
                   (["characters", "show", "vfull:E8"], 0),
                   (["characters", "show", "vplus:E7"], 0),
                   (["characters", "show", "vfull:F4"], 2),
                   (["characters", "show", "vfull:A1200", "--cutoff", "2"], 2),
                   (["code", "rm24"], 0)):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == code, argv
    assert "numpy" not in sys.modules, argv
    assert "voacensus.census" not in sys.modules, argv
    if argv[0] == "characters":
        assert "voacensus.gf2code" not in sys.modules, argv
assert "voacensus.gf2code" in sys.modules
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_sublattice_jobs_build_each_catalog_lattice_once():
    # a fresh interpreter, so the suite's registry caches stay as they are:
    # the jobs that read alpha0 or the A5 + A1 off E8 and E6 build each of
    # those lattices once, in the registry; `characters verify` reads its
    # E7 and A7 off Cartan matrices and builds no lattice
    script = """
import collections, contextlib, io
from voacensus import cli, rootlat
built = collections.Counter()
init = rootlat.RootLattice.__init__
def counting_init(self, name, *args):
    built[name] += 1
    init(self, name, *args)
rootlat.RootLattice.__init__ = counting_init
for argv in (["characters", "verify", "--cutoff", "4"],
             ["group", "--census", "uc", "--inductive"],
             ["census", "commutant", "E8", "--orthogonal-to", "wtilde,phi:alpha0"],
             ["griess", "verify", "twist-chain"],
             ["griess", "verify", "orthogonal-split"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
    if argv[0] == "characters":
        print(sum(built.values()))
print(built["E8"], built["E7"], built["E6"])
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "1", "0", "1"]


@pytest.mark.parametrize("tag", ["DC", "DXC", "D4CC"])
@pytest.mark.parametrize("args", [["census", "lattice"], ["griess", "build"],
                                  ["characters", "show"]])
def test_malformed_code_frame_tag_is_unknown(tag, args, capsys):
    obj = f"vfull:{tag}" if args[0] == "characters" else tag
    assert cli.main(args + [obj]) == 2
    data = json.loads(capsys.readouterr().out)
    assert data["ok"] is False and data["error"] == f"unknown lattice tag {tag!r}"


def test_empty_lattice_tag_is_usage_error():
    proc = subprocess.run(RUN + ["griess", "build", ""],
                          capture_output=True, text=True)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    data = json.loads(proc.stdout)
    assert data["ok"] is False and "empty lattice tag" in data["error"]


@pytest.mark.parametrize("args, message", [
    (["group", "--census", "commutant:E8"], "commutant:<lattice>:<constraint>"),
    (["census", "commutant", "E8", "--orthogonal-to", ","], "commutant:<lattice>"),
    (["census", "commutant", "E8", "--orthogonal-to", "wtilde,"], "commutant:<lattice>"),
    (["census", "lattice", "E8+"], "empty summand"),
    (["group", "--census", "lattice:+E8"], "empty summand"),
])
def test_malformed_census_spec_is_usage_error(args, message, capsys):
    assert cli.main(args) == 2
    data = json.loads(capsys.readouterr().out)
    assert data["ok"] is False and message in data["error"]


def test_failed_sigma_check_exits_1(monkeypatch):
    good = registry.census("ma3")
    elems = list(good.elements)
    elems[0], elems[1] = elems[1], elems[0]
    swapped = IsingCensus(good.points, elems, good.gram, "swapped",
                          algebra=good.algebra)
    # the Gram codes 1/32 for a pair whose elements are orthogonal
    with pytest.raises(transpo.SigmaCheckError,
                       match="inner product 0 admits no involution rule"):
        transpo.sigma_permutations(swapped)
    # true rows against the Gram with points 0 and 1 exchanged
    swap = [1, 0] + list(range(2, len(good)))
    with pytest.raises(transpo.SigmaCheckError, match="Gram"):
        transpo.SigmaTable(registry.sigma_table("ma3").rows.copy(),
                           good.gram[np.ix_(swap, swap)], range(len(good)))
    dropped = census_oracle.subcensus(good, range(1, len(good)), "dropped")
    with pytest.raises(transpo.SigmaCheckError, match="not closed"):
        transpo.sigma_permutations(dropped)
    # an unknown spec keeps the cached tables of real censuses out of play
    monkeypatch.setattr(registry, "census", lambda spec: swapped)
    assert cli.main(["group", "--census", "swapped"]) == 1


def test_failed_sigma_image_exits_1(monkeypatch):
    fresh = census_oracle.subcensus(registry.census("ma3"), range(6), "fresh")
    last = np.flatnonzero(fresh.gram[0] == census.GRAM_32ND)[-1]

    def refuse(self, e, fs):
        raise SigmaImageError(len(fs) - 1,
                              "sigma image is not a central-charge-1/2 candidate")

    monkeypatch.setattr(GriessAlgebra, "sigma_images", refuse)
    with pytest.raises(transpo.SigmaCheckError,
                       match=rf"sigma image of \(0,{last}\) failed: .*candidate"):
        transpo.sigma_permutations(fresh)
    monkeypatch.setattr(registry, "census", lambda spec: fresh)
    assert cli.main(["group", "--census", "refused-image"]) == 1


def test_failed_census_check_exits_1(monkeypatch, tmp_path, capsys):
    path = tmp_path / "h8.txt"
    path.write_text(gf2code.format_code_text(registry.code("hamming8")))
    translate = census._translate_block

    def frame_anchor(sigmas, frame, emb, reps, anchor, cands):
        return translate(sigmas, frame, emb, reps, frame[emb.support[0]], cands)

    # a file spec keeps the cached censuses of catalog codes out of play
    monkeypatch.setattr(census, "_translate_block", frame_anchor)
    assert cli.main(["census", "code", f"file:{path}"]) == 1
    data = json.loads(capsys.readouterr().out)
    assert data["ok"] is False and "distinct candidates" in data["error"]


@pytest.mark.parametrize(
    "spec", [*registry.CENSUS_ALIASES, "lattice:A2", "lattice:D4"])
def test_group_inductive_on_every_alias(spec, capsys):
    code = cli.main(["group", "--census", spec, "--inductive"])
    data = json.loads(capsys.readouterr().out)
    assert code in (0, 1), data
    inductive = data["results"].get("inductive")
    if inductive is not None and inductive["d2_point_count"] == 0:
        # no involutions generate the trivial group
        assert inductive["d2_order"] == "1"


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


@pytest.mark.parametrize("argv", sorted(GRIESS_PINS))
def test_griess_reports_match_pins(argv, capsys):
    code = cli.main(argv.split())
    report = json.loads(capsys.readouterr().out)
    del report["wall_time_s"]
    assert [code, report] == GRIESS_PINS[argv]


@pytest.mark.parametrize("argv", sorted(CENSUS_PINS))
def test_census_reports_match_pins(argv, capsys):
    code = cli.main(argv.split())
    out = capsys.readouterr().out
    assert [code, WALL_TIME.sub("", out, count=1)] == CENSUS_PINS[argv]


def test_census_of_dplus1_code_is_unrealized(tmp_path):
    # the [4,1] code {0000, 1111} is structure_code_dplus(1), whose lattice
    # D2C has no code-frame model
    path = tmp_path / "dplus1.txt"
    path.write_text(gf2code.format_code_text(gf2code.structure_code_dplus(1)))
    code, data = invoke_json(["census", "code", f"file:{path}"])
    assert code == 0
    res = data["results"]
    assert res["source"] == "code:unrealized"
    assert (res["count"], res["frames"], res["hamming_points"]) == (4, 4, 0)


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
