"""Command-line interface: output formats, cache behaviour, exit codes."""

import dataclasses
import hashlib
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


def test_compute_unwritable_out_is_exit_two(cache_dir, tmp_path):
    out = tmp_path / "missing" / "table.csv"
    r = run_cli("compute", "--sequence", "sigma", "--lo", "1", "--hi", "3",
                "--out", str(out), "--cache-dir", str(cache_dir))
    assert r.returncode == 2
    assert f"error: cannot write {out}" in r.stderr
    assert "Traceback" not in r.stderr


def test_compute_into_a_closed_pipe_is_exit_two(cache_dir):
    # about 101 KB of csv, more than a pipe buffer holds, so the writer is
    # still blocked when the reader goes away
    proc = subprocess.Popen(
        [sys.executable, "-m", "sptq", "compute", "--sequence", "sigma",
         "--lo", "0", "--hi", "10000", "--format", "csv",
         "--cache-dir", str(cache_dir)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    assert proc.stdout.readline() == "n,value\n"
    proc.stdout.close()
    stderr = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 2
    assert "Traceback" not in stderr
    assert "error: cannot write stdout" in stderr


@pytest.mark.parametrize("command", ["list", "examples"])
def test_listing_into_a_closed_pipe_is_exit_two(command):
    # the pipe's read end is closed before the child starts, so its first
    # write to stdout fails whatever the size of the text
    import os

    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        r = subprocess.run([sys.executable, "-m", "sptq", command], stdout=write_end,
                           stderr=subprocess.PIPE, text=True, timeout=60)
    finally:
        os.close(write_end)
    assert r.returncode == 2
    assert "Traceback" not in r.stderr
    assert "error: cannot write stdout" in r.stderr


def run_into_closed_stderr(*args, stdout_too):
    """Run the CLI with stderr, and stdout too when ``stdout_too``, on a pipe
    whose read end is closed before the child starts, so every write there
    fails; stdout is otherwise captured."""
    import os

    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        return subprocess.run([sys.executable, "-m", "sptq", *args],
                              stdout=write_end if stdout_too else subprocess.PIPE,
                              stderr=write_end, text=True, timeout=120)
    finally:
        os.close(write_end)


@pytest.mark.parametrize("args", [
    ("verify", "--all", "--order", "40"),
    ("compute", "--sequence", "p", "--lo", "0", "--hi", "4000", "--format", "text"),
], ids=["verify", "compute"])
def test_closed_stdout_and_stderr_is_exit_two(args):
    # as in `sptq ... 2>&1 | head -1`: verify's progress lines and the
    # "cannot write stdout" message are dropped, so the exit code is the
    # closed stdout's 2, not the 1 of an uncaught BrokenPipeError
    assert run_into_closed_stderr(*args, stdout_too=True).returncode == 2


def test_closed_stderr_drops_only_the_progress_lines():
    from sptq import identities

    r = run_into_closed_stderr("verify", "--all", "--order", "40", stdout_too=False)
    assert r.returncode == 0
    reports = json.loads(r.stdout)
    assert [report["id"] for report in reports] == list(identities.REGISTRY)
    assert {report["status"] for report in reports} == {"pass"}


def test_compute_cold_and_warm_cache_are_byte_identical(cache_dir):
    # spt_o is read off its generating series on a miss, p off its closed form
    cases = [("p", "0", "json")] + [("spt_o", "1", fmt) for fmt in ("json", "csv", "text")]
    for name, lo, fmt in cases:
        case_dir = cache_dir / f"{name}-{fmt}"
        args = ("compute", "--sequence", name, "--lo", lo, "--hi", "20",
                "--format", fmt, "--cache-dir", str(case_dir))
        cold = run_cli(*args)
        assert cold.returncode == 0
        assert (case_dir / f"{name}.json").exists()
        warm = run_cli(*args)
        assert warm.returncode == 0
        assert warm.stdout == cold.stdout


@pytest.mark.parametrize(
    "name", ["spt", "spt_o_plus", "spt_o_minus", "spt_o", "n2", "m2"])
def test_compute_reads_tables_off_series_without_enumerating(
        name, tmp_path, monkeypatch, capsys):
    from sptq import cli, partitions

    def refuse(n):
        raise AssertionError(f"compute enumerated the partitions of {n}")

    monkeypatch.setattr(partitions, "enumerate_partitions", refuse)
    code = cli.main(["compute", "--sequence", name, "--lo", "1", "--hi", "60",
                     "--format", "csv", "--cache-dir", str(tmp_path)])
    assert code == 0
    rows = capsys.readouterr().out.splitlines()
    assert len(rows) == 61
    if name == "spt":
        assert rows[-1] == "60,6144561"


CLOSED_FORM_ROWS = {  # name -> (builder of its series, values at n = 0..10)
    "p": ("_p_series", [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]),
    "sigma": ("lambert_sigma", [0, 1, 3, 4, 7, 6, 12, 8, 15, 13, 18]),
    "t4": ("_t4_series", [1, 4, 6, 8, 13, 12, 14, 24, 18, 20, 32]),
}


@pytest.mark.parametrize("name", sorted(CLOSED_FORM_ROWS))
def test_compute_reads_closed_form_tables_off_series(
        name, tmp_path, monkeypatch, capsys):
    from sptq import cli, partitions, series

    builder, values = CLOSED_FORM_ROWS[name]
    build = getattr(series, builder)
    orders = []

    def counting(order):
        orders.append(order)
        return build(order)

    def refuse(n):
        raise AssertionError(f"compute evaluated a closed form at n = {n}")

    monkeypatch.setattr(series, builder, counting)
    for fn in ("p", "sigma", "t4"):
        monkeypatch.setattr(partitions, fn, refuse)
    code = cli.main(["compute", "--sequence", name, "--lo", "0", "--hi", "10",
                     "--format", "csv", "--cache-dir", str(tmp_path)])
    assert code == 0
    rows = capsys.readouterr().out.splitlines()
    assert rows == ["n,value"] + [f"{n},{v}" for n, v in enumerate(values)]
    assert orders == [10]


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
    from sptq import __version__

    cache_dir.mkdir(parents=True)
    # entries that parse but are not what the cache writes: a string in
    # place of the value list, and floats in place of decimal strings
    malformed = [
        json.dumps({"name": "spt", "lo": 1, "hi": 3, "values": values,
                    "version": __version__})
        for values in ("999", [1.7, 1, 2])
    ]
    for corrupt in ("{not json", "[]", *malformed):
        (cache_dir / "spt.json").write_text(corrupt)
        r = run_cli("compute", "--sequence", "spt", "--lo", "1", "--hi", "3",
                    "--cache-dir", str(cache_dir))
        assert r.returncode == 0
        assert json.loads(r.stdout)["values"] == ["1", "3", "5"]
        # the bad entry is replaced by the recomputed table
        assert json.loads((cache_dir / "spt.json").read_text())["values"] == [
            "1", "3", "5"]


# an entry whose value count disagrees with its range 1..hi, short or long,
# is a miss even for a request of exactly that range
@pytest.mark.parametrize("hi, values", [
    pytest.param(10, ["1", "3", "5"], id="short"),
    pytest.param(3, ["1", "3", "5", "10", "14"], id="long"),
])
def test_compute_short_cache_entry_is_recomputed(cache_dir, hi, values):
    from sptq import __version__

    cache_dir.mkdir(parents=True)
    entry = {"name": "spt", "lo": 1, "hi": hi, "values": values,
             "version": __version__}
    (cache_dir / "spt.json").write_text(json.dumps(entry))
    r = run_cli("compute", "--sequence", "spt", "--lo", "1", "--hi", str(hi),
                "--format", "csv", "--cache-dir", str(cache_dir))
    assert r.returncode == 0
    assert r.stdout.splitlines() == [
        "n,value", "1,1", "2,3", "3,5", "4,10", "5,14", "6,26", "7,35",
        "8,57", "9,80", "10,119",
    ][: hi + 1]
    # the bad entry is replaced, so the next run reads a full table
    assert len(json.loads((cache_dir / "spt.json").read_text())["values"]) == hi


def test_compute_checks_the_domain_before_reading_the_cache(cache_dir, tmp_path):
    from sptq import __version__

    args = ("compute", "--sequence", "spt", "--lo", "0", "--hi", "3")
    empty = run_cli(*args, "--cache-dir", str(tmp_path / "empty"))
    assert empty.returncode == 2
    assert "defined for n >= 1" in empty.stderr
    cache_dir.mkdir(parents=True)
    entry = {"name": "spt", "lo": 0, "hi": 3, "values": ["0", "1", "3", "5"],
             "version": __version__}
    (cache_dir / "spt.json").write_text(json.dumps(entry))
    r = run_cli(*args, "--cache-dir", str(cache_dir))
    assert (r.returncode, r.stdout, r.stderr) == (2, "", empty.stderr)


def test_compute_unknown_name_never_reaches_the_cache(cache_dir, tmp_path):
    from sptq import __version__

    args = ("compute", "--sequence", "../evil", "--lo", "1", "--hi", "1")
    empty = run_cli(*args, "--cache-dir", str(tmp_path / "empty" / "cache"))
    assert empty.returncode == 2
    assert "unknown sequence" in empty.stderr
    cache_dir.mkdir(parents=True)
    entry = {"name": "../evil", "lo": 1, "hi": 1, "values": ["7"],
             "version": __version__}
    (tmp_path / "evil.json").write_text(json.dumps(entry))
    r = run_cli(*args, "--cache-dir", str(cache_dir))
    assert (r.returncode, r.stdout, r.stderr) == (2, "", empty.stderr)


def test_compute_without_cache_dir_opens_no_cache(tmp_path):
    # no default location: HOME, XDG_CACHE_HOME, SPTQ_CACHE_DIR and the
    # working directory all point into one empty directory, and nothing is
    # written there; the output is the same bytes as a cold and a warm
    # --cache-dir run
    import os

    import sptq

    home = tmp_path / "home"
    home.mkdir()
    env = {"HOME": str(home), "XDG_CACHE_HOME": str(home / "xdg"),
           "SPTQ_CACHE_DIR": str(home / "sptq"),
           "PYTHONPATH": os.path.dirname(os.path.dirname(sptq.__file__))}
    for fmt in ("json", "csv", "text"):
        args = ("compute", "--sequence", "spt_o_plus", "--lo", "1", "--hi", "30",
                "--format", fmt)
        bare = run_cli(*args, env_extra=env, cwd=home)
        assert bare.returncode == 0
        assert list(home.iterdir()) == []
        cached = [run_cli(*args, "--cache-dir", str(tmp_path / f"cache-{fmt}"))
                  for _ in ("cold", "warm")]
        assert [r.stdout for r in cached] == [bare.stdout] * 2


def test_compute_miss_overwrites_a_narrower_entry(cache_dir):
    from sptq import __version__

    cache_dir.mkdir(parents=True)
    entry = {"name": "spt", "lo": 1, "hi": 10,
             "values": ["1", "3", "5", "10", "14", "26", "35", "57", "80", "119"],
             "version": __version__}
    (cache_dir / "spt.json").write_text(json.dumps(entry))
    args = ("compute", "--sequence", "spt", "--lo", "5", "--hi", "20",
            "--cache-dir", str(cache_dir))
    cold = run_cli(*args)
    assert cold.returncode == 0
    stored = json.loads((cache_dir / "spt.json").read_text())
    assert (stored["lo"], stored["hi"]) == (5, 20)
    assert stored["values"] == json.loads(cold.stdout)["values"]
    # the repeat is a hit: a planted value comes back instead of spt(20)
    stored["values"][-1] = "7"
    (cache_dir / "spt.json").write_text(json.dumps(stored))
    warm = run_cli(*args)
    assert json.loads(warm.stdout)["values"][-1] == "7"


def test_compute_failed_cache_store_leaves_no_temp_file(cache_dir):
    # a directory where the entry should go: the store fails at os.replace,
    # the run still succeeds, and neither run leaves its temp file behind
    (cache_dir / "spt.json").mkdir(parents=True)
    for _ in range(2):
        r = run_cli("compute", "--sequence", "spt", "--lo", "1", "--hi", "3",
                    "--cache-dir", str(cache_dir))
        assert r.returncode == 0
        assert json.loads(r.stdout)["values"] == ["1", "3", "5"]
    assert [p.name for p in cache_dir.iterdir()] == ["spt.json"]


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


def test_verify_repeated_identity_runs_once(monkeypatch, capsys):
    from sptq import cli, identities

    runs = []
    check = identities.REGISTRY["thm5"]

    def counting(order):
        runs.append(order)
        return check.run(order)

    monkeypatch.setitem(identities.REGISTRY, "thm5",
                        dataclasses.replace(check, run=counting))
    assert cli.main(["verify", "--identity", "thm5", "--identity", "thm5",
                     "--order", "10"]) == 0
    assert [x["id"] for x in json.loads(capsys.readouterr().out)] == ["thm5"]
    assert runs == [10]


def test_verify_unknown_identity():
    r = run_cli("verify", "--identity", "nonsense", "--order", "10")
    assert r.returncode == 2
    assert "unknown identity" in r.stderr


def test_verify_order_zero_is_usage_error():
    r = run_cli("verify", "--identity", "eq2", "--order", "0")
    assert r.returncode == 2


CEILING_ARGS = {
    "compute": ["compute", "--sequence", "spt", "--lo", "1", "--hi"],
    "verify": ["verify", "--all", "--order"],
}


@pytest.mark.parametrize("command", sorted(CEILING_ARGS))
def test_orders_above_the_ceiling_fail_before_any_build(
        command, tmp_path, monkeypatch, capsys):
    from sptq import cli, identities, partitions, series

    assert partitions.MAX_ORDER >= 5000  # compute --sequence sigma --hi 5000 is in use
    built = []

    def refuse(name):
        def build(*args):
            built.append(name)
            raise AssertionError(f"{name} ran above the ceiling")
        return build

    for builder, _lo in partitions._SEQUENCES.values():
        monkeypatch.setattr(series, builder, refuse(builder))
    monkeypatch.setattr(partitions, "sequence", refuse("sequence"))
    monkeypatch.setattr(identities, "verify", refuse("verify"))
    for check_id, check in identities.REGISTRY.items():
        monkeypatch.setitem(identities.REGISTRY, check_id,
                            dataclasses.replace(check, run=refuse(check_id)))
    argv = CEILING_ARGS[command] + [str(partitions.MAX_ORDER + 1)]
    if command == "compute":
        argv += ["--cache-dir", str(tmp_path)]
    assert cli.main(argv) == 2
    assert built == []
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"ceiling MAX_ORDER = {partitions.MAX_ORDER}" in captured.err


def test_verify_requires_selection():
    r = run_cli("verify", "--order", "10")
    assert r.returncode == 2


def test_verify_all_with_identity_is_usage_error(monkeypatch, capsys):
    from sptq import cli, identities

    def refuse(*args):
        raise AssertionError("a check ran despite the ambiguous selection")

    monkeypatch.setattr(identities, "verify", refuse)
    for check_id, check in identities.REGISTRY.items():
        monkeypatch.setitem(identities.REGISTRY, check_id,
                            dataclasses.replace(check, run=refuse))
    assert cli.main(["verify", "--all", "--identity", "eq2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: give --all or --identity, not both" in captured.err


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


def test_verify_unwritable_report_is_exit_two(tmp_path):
    # exit 1 would claim a failed check; every check here passes
    out = tmp_path / "missing" / "report.json"
    r = run_cli("verify", "--identity", "sigma_doubling", "--order", "50",
                "--report", str(out))
    assert r.returncode == 2
    assert f"error: cannot write {out}" in r.stderr
    assert "Traceback" not in r.stderr


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
# output digests: sha256 of the stdout of fixed requests, so that a change
# in how a series is built cannot move an output byte unnoticed
# ----------------------------------------------------------------------

VERIFY_ALL_DIGESTS = {  # JSON with every elapsed_ms removed, indent 2
    1: "3302bab5ffb5494fa9c949eb3bfda9bccd73a44c28aec4ef90b52b0841d92754",
    12: "8b094d737e0449b4b4e214d16b30b0c56ea2c37a81e82533337add2c86c37002",
    15: "ce9abb1ff7cf55357819fe678b8e688221d8fd200481cc5048bfed256a63772f",
    16: "c60e3320cb01a28f197a304c7f0aeb41b617f25dbb81175dc0bb48f207e79580",
    30: "8e372400b4275080bbde56b18fd0f96a2bfdb7c0115a0db112c7f2c3719c702d",
    31: "cbe0f19304e14376419c6be98c011b291f1bc5744a4b29976b3f70367eddac79",
    60: "751d0102094c16ee5a5fc2c628efd9f50febf2ab3c7a22551bd5a4443eec5a64",
    61: "eb0a6124bd674d6b0e87f28e3ec616cfdf7587360ab2e22621c5508814d545d5",
    200: "5b324d0fca7f921c6cd358fff33194e2f2d455c81ca42f1fcb28bf04c43ad605",
    480: "d23b38722441daedcc54af55465aae94d31ca339b28bb80a460e18bc10d5a0e8",
}
COMPUTE_DIGESTS = {  # --format csv over COMPUTE_RANGES, else --lo 1 --hi 400
    "spt": "2ecaaf765ad45f141cc8ccd478418796dd61c2a6298082c225f0101a380c8c15",
    "spt_o_plus": "13c54e181d899a4771ee8fc8c398e0c06ca94a2bd26741180fa12f70b8cf960a",
    "spt_o_minus": "03e17c688b0361cf40825db35dcf467fd2ff13f476c19c75fa852fffa3bd0ef8",
    "spt_o": "150ffdba50e9c40b312581eee2e92f4c634a84e08839a9d65f0e6607c2d56071",
    "n2": "da5c1c1e8c51c7f3a471a5c7003797132b895b7519e3e32f9b12e06a246e2b7e",
    "m2": "1a0b2483d80afb1bf28f644c5be21bd2e253a6369b874cf489872bc808672b3c",
    "p": "6b8fa8cc1ef853221cda6dd5f6c252b1479e4cf1517b8c6edbff7fb3722d669c",
    "sigma": "8771991c093ed1e6de2baee42aae1eab2ead86de8c6ec60e44920da4f2281443",
    "t4": "84b30e571eb09cae2f897c8d6afd684d027990cf28d4bfb872935230ed743a79",
}
COMPUTE_RANGES = {"p": (0, 1500), "sigma": (0, 5000), "t4": (0, 600)}
LISTING_DIGESTS = {
    "list": "e140a1d0af6810ccb6ae3ac1d6814a26a1e3dba879dee83b350e8c2b62851def",
    "examples": "4cdbc3374d140280c0495e13747c91fac23fe514088cae777c5761d321cf28f8",
}


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("order", sorted(VERIFY_ALL_DIGESTS))
def test_verify_all_output_digest(order, capsys):
    from sptq import cli

    assert cli.main(["verify", "--all", "--order", str(order)]) == 0
    reports = json.loads(capsys.readouterr().out)
    for report in reports:
        del report["elapsed_ms"]
    assert sha256(json.dumps(reports, indent=2)) == VERIFY_ALL_DIGESTS[order]


@pytest.mark.parametrize("name", sorted(COMPUTE_DIGESTS))
def test_compute_output_digest(name, tmp_path, capsys):
    from sptq import cli

    lo, hi = COMPUTE_RANGES.get(name, (1, 400))
    code = cli.main(["compute", "--sequence", name, "--lo", str(lo), "--hi", str(hi),
                     "--format", "csv", "--cache-dir", str(tmp_path / "cache")])
    assert code == 0
    assert sha256(capsys.readouterr().out) == COMPUTE_DIGESTS[name]


@pytest.mark.parametrize("command", sorted(LISTING_DIGESTS))
def test_listing_output_digest(command, capsys):
    from sptq import cli

    assert cli.main([command]) == 0
    assert sha256(capsys.readouterr().out) == LISTING_DIGESTS[command]


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


def test_examples_parity_line_counts_the_even_coefficients_of_eq2():
    # the line reads the product side ``compute`` serves; the left side of
    # eq. (2) counts the same spt_o_plus(2n), n = 1..30, another way
    from sptq import identities

    lhs = identities.lhs_eq2(60).coeffs
    hits = sum(1 for n in range(1, 31) if lhs[2 * n] % 2 == 0)
    line = run_cli("examples").stdout.splitlines()[-1]
    assert line == (f"finite-range observation: spt_o_plus(2n) is even for {hits} "
                    "of the first 30 values of n (no limit claimed)")


def test_list_shows_registries():
    r = run_cli("list")
    assert r.returncode == 0
    assert "eq2" in r.stdout
    assert "cong13" in r.stdout
    for name in ("p", "sigma", "spt", "spt_o_plus", "spt_o_minus",
                 "spt_o", "n2", "m2", "t4"):
        assert name in r.stdout


# ----------------------------------------------------------------------
# the command line's grammar: each spelling below reads as its canonical
# argv, and each refusal exits 2 with a usage line and one error line
# ----------------------------------------------------------------------

COMPUTE_P = ["compute", "--sequence", "p", "--lo", "3", "--hi", "12"]
SPELLINGS = [  # (argv, the canonical argv whose exit code and stdout it gives)
    pytest.param(["compute", "--sequence=p", "--lo=3", "--hi=12", "--format=csv"],
                 COMPUTE_P + ["--format", "csv"], id="equals"),
    pytest.param(["compute", "--seq", "p", "--l", "3", "--hi", "12", "--fo", "text"],
                 COMPUTE_P + ["--format", "text"], id="prefixes"),
    pytest.param(["compute", "--seq=p", "--lo=3", "--hi", "12", "--f=csv"],
                 COMPUTE_P + ["--format", "csv"], id="prefix-equals"),
    pytest.param(["compute", "--hi", "12", "--format", "csv", "--lo", "3", "--sequence", "p"],
                 COMPUTE_P + ["--format", "csv"], id="any-order"),
    pytest.param(["compute", "--sequence", "p", "--lo", "0_3", "--hi", "1_2"], COMPUTE_P,
                 id="underscored-ints"),
    pytest.param(["compute", "--sequence", "p", "--lo", "+3", "--hi", " 12 "], COMPUTE_P,
                 id="signed-and-spaced-ints"),
    pytest.param(COMPUTE_P + ["--format", "json"], COMPUTE_P, id="format-default"),
    pytest.param(COMPUTE_P + ["--out="], COMPUTE_P, id="empty-out-is-stdout"),
    pytest.param(COMPUTE_P + ["--format", "text", "--format", "csv"],
                 COMPUTE_P + ["--format", "csv"], id="last-format-wins"),
    pytest.param(["compute", "--sequence", "p", "--lo", "-3", "--hi", "4"],
                 ["compute", "--sequence", "p", "--lo=-3", "--hi", "4"], id="negative-int"),
    pytest.param(["verify", "--identity", "thm5", "--ident=eq23", "--i", "thm5", "--order", "9"],
                 ["verify", "--identity", "thm5", "--identity", "eq23", "--order", "9"],
                 id="repeated-identity"),
    pytest.param(["verify", "--all", "--order", "50", "--ord", "12"],
                 ["verify", "--all", "--order", "12"], id="last-order-wins"),
    pytest.param(["verify", "--a", "--all", "--order=1_2"], ["verify", "--all", "--order", "12"],
                 id="all-prefix-and-repeat"),
    pytest.param(["verify", "--all"], ["verify", "--all", "--order", "40"], id="order-default"),
    pytest.param(["verify", "--all", "--order", "-3"], ["verify", "--all", "--order=-3"],
                 id="negative-order"),
    pytest.param(["verify", "--identity="], ["verify", "--identity", ""], id="empty-identity"),
]


def _in_process(argv, capsys):
    """cli.main(argv) run here: its exit code, stdout and stderr, with the
    elapsed times of a verify report taken out."""
    from sptq import cli

    code = cli.main(argv)
    out, err = capsys.readouterr()
    if argv[0] == "verify" and code != 2:
        reports = json.loads(out)
        for report in reports:
            del report["elapsed_ms"]
        out = reports
        err = [line.rsplit(",", 1)[0] for line in err.splitlines()]  # no timings
    return code, out, err


@pytest.mark.parametrize("argv, canonical", SPELLINGS)
def test_each_accepted_spelling_reads_as_its_canonical_argv(argv, canonical, capsys):
    assert _in_process(argv, capsys) == _in_process(canonical, capsys)


REFUSALS = [  # (argv, a word its error line must contain)
    pytest.param([], "command", id="no-command"),
    pytest.param(["nope"], "nope", id="unknown-command"),
    pytest.param(["--", "list"], "--", id="separator-as-command"),
    pytest.param(["list", "--bogus"], "--bogus", id="unrecognised-flag"),
    pytest.param(["--bogus", "list"], "--bogus", id="unrecognised-top-flag"),
    pytest.param(["list", "extra"], "extra", id="stray-word"),
    pytest.param(["list", "--"], "--", id="stray-separator"),
    pytest.param(COMPUTE_P + ["--", "--format", "csv"], "--", id="flags-after-separator"),
    pytest.param(["compute", "--sequence", "p", "--lo", "3", "--hi"], "--hi", id="missing-value"),
    pytest.param(["compute", "--sequence", "-x", "--lo", "3", "--hi", "4"], "--sequence",
                 id="flag-like-value"),
    pytest.param(["compute", "--sequence", "p", "--lo", "-1_0", "--hi", "4"], "--lo",
                 id="flag-like-negative"),
    pytest.param(["compute", "--sequence", "p", "--lo", "x", "--hi", "4"], "--lo", id="bad-int"),
    pytest.param(["compute", "--sequence", "p", "--lo", "1.0", "--hi", "4"], "--lo",
                 id="float-int"),
    pytest.param(COMPUTE_P + ["--format", "xml"], "--format", id="bad-format"),
    pytest.param(["compute", "--lo", "3", "--hi", "4"], "--sequence", id="missing-sequence"),
    pytest.param(["compute", "--sequence", "p", "--hi", "4"], "--lo", id="missing-lo"),
    pytest.param(["compute", "--sequence", "p", "--lo", "3"], "--hi", id="missing-hi"),
    pytest.param(["verify", "--all=1"], "--all", id="switch-given-value"),
    pytest.param(["verify", "--all", "1"], "1", id="switch-followed-by-value"),
    pytest.param(COMPUTE_P + ["--h", "20"], "--h", id="ambiguous-prefix"),
    pytest.param(["compute", "-h", "--h"], "--h", id="ambiguous-before-help"),
    pytest.param(["compute", "--lo", "x", "-h"], "--lo", id="bad-int-before-help"),
    pytest.param(["verify", "--help=x"], "--help", id="help-given-value"),
    pytest.param(["-hx"], "-h", id="short-help-given-value"),
    pytest.param(["verify", "--all", "--order", "x"], "--order", id="bad-order"),
]


def _assert_refused(code, out, err, word):
    lines = err.splitlines()
    errors = [line for line in lines if "error:" in line]
    assert (code, out) == (2, "")
    assert "Traceback" not in err
    assert lines[0].startswith("usage: sptq")
    assert len(errors) == 1 and errors[0].startswith("sptq") and word in errors[0]


@pytest.mark.parametrize("argv, word", REFUSALS)
def test_each_refusal_exits_two_with_a_usage_and_an_error_line(argv, word):
    r = run_cli(*argv)
    _assert_refused(r.returncode, r.stdout, r.stderr, word)


@pytest.mark.parametrize("argv, word", REFUSALS)
def test_cli_main_returns_two_for_each_refusal(argv, word, capsys):
    from sptq import cli

    code = cli.main(argv)
    _assert_refused(code, *capsys.readouterr(), word)


COMMAND_FLAGS = {
    None: ["-h", "--help", "compute", "verify", "examples", "list"],
    "compute": ["-h", "--help", "--sequence", "--lo", "--hi", "--format", "--out",
                "--cache-dir"],
    "verify": ["-h", "--help", "--all", "--identity", "--order", "--report"],
    "examples": ["-h", "--help"],
    "list": ["-h", "--help"],
}
HELP_ARGVS = [
    ["-h"], ["--help"], ["--he"], ["-hh"], ["--bogus", "-h"], ["-h", "nope"],
    ["compute", "-h"], ["compute", "--help", "--lo", "x"], ["compute", "--bogus", "-h"],
    ["compute", "--lo", "3", "-h"], ["verify", "--h"], ["verify", "--all", "-h"],
    ["examples", "-h"], ["list", "--help"],
]


@pytest.mark.parametrize("argv", HELP_ARGVS, ids=" ".join)
def test_help_exits_zero_and_names_every_flag(argv):
    r = run_cli(*argv)
    assert (r.returncode, r.stderr) == (0, "")
    command = argv[0] if argv[0] in COMMAND_FLAGS else None
    assert r.stdout.startswith(f"usage: sptq {command or ''}".rstrip())
    words = r.stdout.replace(",", " ").replace("[", " ").replace("]", " ").split()
    assert set(COMMAND_FLAGS[command]) <= set(words)
