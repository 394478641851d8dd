"""Command-line interface: output formats, cache behaviour, exit codes."""

import json
import subprocess
import sys

import pytest


def run_cli(*args, env_extra=None, cwd=None):
    import os

    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "sptq", *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=cwd,
    )


@pytest.fixture
def cache_dir(tmp_path):
    return tmp_path / "cache"


# ----------------------------------------------------------------------
# compute
# ----------------------------------------------------------------------


def test_compute_csv(cache_dir):
    r = run_cli("compute", "--sequence", "spt", "--lo", "1", "--hi", "4",
                "--format", "csv", "--cache-dir", str(cache_dir))
    assert r.returncode == 0
    assert r.stdout.splitlines() == ["n,value", "1,1", "2,3", "3,5", "4,10"]


def test_compute_json_values_are_strings(cache_dir):
    r = run_cli("compute", "--sequence", "spt_o", "--lo", "2", "--hi", "2",
                "--cache-dir", str(cache_dir))
    assert r.returncode == 0
    payload = json.loads(r.stdout)
    assert payload == {"name": "spt_o", "lo": 2, "hi": 2, "values": ["1"]}


def test_compute_text_format(cache_dir):
    r = run_cli("compute", "--sequence", "p", "--lo", "0", "--hi", "2",
                "--format", "text", "--cache-dir", str(cache_dir))
    assert r.returncode == 0
    assert r.stdout.splitlines() == ["p(0) = 1", "p(1) = 1", "p(2) = 2"]


def test_compute_unknown_sequence(cache_dir):
    r = run_cli("compute", "--sequence", "bogus", "--lo", "1", "--hi", "2",
                "--cache-dir", str(cache_dir))
    assert r.returncode == 2
    assert "unknown sequence" in r.stderr


def test_compute_invalid_range(cache_dir):
    r = run_cli("compute", "--sequence", "spt", "--lo", "4", "--hi", "1",
                "--cache-dir", str(cache_dir))
    assert r.returncode == 2
    r = run_cli("compute", "--sequence", "spt", "--lo", "0", "--hi", "2",
                "--cache-dir", str(cache_dir))
    assert r.returncode == 2


def test_compute_out_file(cache_dir, tmp_path):
    out = tmp_path / "table.csv"
    r = run_cli("compute", "--sequence", "sigma", "--lo", "1", "--hi", "3",
                "--format", "csv", "--out", str(out),
                "--cache-dir", str(cache_dir))
    assert r.returncode == 0
    assert out.read_text().splitlines() == ["n,value", "1,1", "2,3", "3,4"]


def test_compute_cold_and_warm_cache_are_byte_identical(cache_dir):
    args = ("compute", "--sequence", "p", "--lo", "0", "--hi", "20",
            "--cache-dir", str(cache_dir))
    cold = run_cli(*args)
    assert cold.returncode == 0
    assert (cache_dir / "p.json").exists()
    warm = run_cli(*args)
    assert warm.returncode == 0
    assert warm.stdout == cold.stdout


def test_compute_cache_subrange_reuse(cache_dir):
    r1 = run_cli("compute", "--sequence", "spt", "--lo", "1", "--hi", "10",
                 "--cache-dir", str(cache_dir))
    assert r1.returncode == 0
    r2 = run_cli("compute", "--sequence", "spt", "--lo", "3", "--hi", "5",
                 "--cache-dir", str(cache_dir))
    assert json.loads(r2.stdout)["values"] == ["5", "10", "14"]
    # the narrower query must not clobber the wider cache entry
    entry = json.loads((cache_dir / "spt.json").read_text())
    assert (entry["lo"], entry["hi"]) == (1, 10)


def test_compute_corrupt_cache_is_recomputed(cache_dir):
    cache_dir.mkdir(parents=True)
    for corrupt in ("{not json", "[]"):
        (cache_dir / "spt.json").write_text(corrupt)
        r = run_cli("compute", "--sequence", "spt", "--lo", "1", "--hi", "3",
                    "--cache-dir", str(cache_dir))
        assert r.returncode == 0
        assert json.loads(r.stdout)["values"] == ["1", "3", "5"]


def test_compute_short_cache_entry_is_recomputed(cache_dir):
    from sptq import __version__

    cache_dir.mkdir(parents=True)
    entry = {"name": "spt", "lo": 1, "hi": 10, "values": ["1", "3", "5"],
             "version": __version__}
    (cache_dir / "spt.json").write_text(json.dumps(entry))
    r = run_cli("compute", "--sequence", "spt", "--lo", "1", "--hi", "10",
                "--format", "csv", "--cache-dir", str(cache_dir))
    assert r.returncode == 0
    assert r.stdout.splitlines() == [
        "n,value", "1,1", "2,3", "3,5", "4,10", "5,14", "6,26", "7,35",
        "8,57", "9,80", "10,119",
    ]
    # the bad entry is replaced, so the next run reads a full table
    assert len(json.loads((cache_dir / "spt.json").read_text())["values"]) == 10


def test_cache_dir_env_var(tmp_path):
    env_cache = tmp_path / "envcache"
    r = run_cli("compute", "--sequence", "p", "--lo", "0", "--hi", "3",
                env_extra={"SPTQ_CACHE_DIR": str(env_cache)})
    assert r.returncode == 0
    assert (env_cache / "p.json").exists()


# ----------------------------------------------------------------------
# verify
# ----------------------------------------------------------------------


def test_verify_single_identity(cache_dir):
    r = run_cli("verify", "--identity", "thm2", "--order", "30")
    assert r.returncode == 0
    reports = json.loads(r.stdout)
    assert len(reports) == 1
    assert reports[0]["id"] == "thm2"
    assert reports[0]["status"] == "pass"
    assert reports[0]["mismatches"] == []
    assert "elapsed_ms" in reports[0]


def test_verify_multiple_identities():
    r = run_cli("verify", "--identity", "thm5", "--identity", "eq23",
                "--order", "25")
    assert r.returncode == 0
    assert [x["id"] for x in json.loads(r.stdout)] == ["thm5", "eq23"]


def test_verify_unknown_identity():
    r = run_cli("verify", "--identity", "nonsense", "--order", "10")
    assert r.returncode == 2
    assert "unknown identity" in r.stderr


def test_verify_order_zero_is_usage_error():
    r = run_cli("verify", "--identity", "eq2", "--order", "0")
    assert r.returncode == 2


def test_verify_requires_selection():
    r = run_cli("verify", "--order", "10")
    assert r.returncode == 2


def test_verify_all_small_order():
    r = run_cli("verify", "--all", "--order", "12")
    assert r.returncode == 0
    reports = json.loads(r.stdout)
    assert len(reports) == 23
    assert all(x["status"] == "pass" for x in reports)


def test_verify_report_file(tmp_path):
    out = tmp_path / "report.json"
    r = run_cli("verify", "--identity", "sigma_doubling", "--order", "50",
                "--report", str(out))
    assert r.returncode == 0
    assert json.loads(out.read_text())[0]["status"] == "pass"


def test_verify_exit_code_one_on_failed_check(monkeypatch, capsys):
    # no registered check actually fails, so exercise the exit-1 branch
    # in-process with an injected failing check
    from sptq import cli, identities

    def run(order):
        return order, [identities.Mismatch(1, 2, 3)]

    fake = identities.IdentityCheck("fake", "always fails",
                                    "sequence-equality", run)
    monkeypatch.setitem(identities.REGISTRY, "fake", fake)
    code = cli.main(["verify", "--identity", "fake", "--order", "5"])
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload[0]["status"] == "fail"
    assert payload[0]["mismatches"] == [{"k": 1, "lhs": "2", "rhs": "3"}]


# ----------------------------------------------------------------------
# examples / list
# ----------------------------------------------------------------------


def test_examples_flags_exactly_two_discrepancies():
    r = run_cli("examples")
    assert r.returncode == 0
    flagged = [line for line in r.stdout.splitlines() if "disagrees" in line]
    assert len(flagged) == 2
    assert any("spt_o_plus(4)" in line and "9" in line and "7" in line
               for line in flagged)
    assert any("spt_o_minus(6)" in line and "16" in line and "18" in line
               for line in flagged)


def test_examples_agreeing_rows():
    r = run_cli("examples")
    agreeing = [line for line in r.stdout.splitlines() if "agrees" in line
                and "disagrees" not in line]
    assert len(agreeing) == 5
    assert any("spt(2)" in line for line in agreeing)
    assert any("spt_o_plus(3)" in line for line in agreeing)
    assert any("spt_o_minus(5)" in line for line in agreeing)


def test_list_shows_registries():
    r = run_cli("list")
    assert r.returncode == 0
    assert "eq2" in r.stdout
    assert "cong13" in r.stdout
    for name in ("p", "sigma", "spt", "spt_o_plus", "spt_o_minus",
                 "spt_o", "n2", "m2", "t4"):
        assert name in r.stdout
