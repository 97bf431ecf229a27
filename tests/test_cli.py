"""CLI surface: every subcommand, exact-int parsing, schemas, determinism."""

import json
from importlib import resources

import jsonschema
import pytest
from referencing import Registry, Resource

from gcollatz import cli
from gcollatz.cli import exact_int, main

TRAJ_135_TAIL = [4000, 400, 40, 4]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def schema_validator(name):
    base = resources.files("gcollatz").joinpath("schemas")
    stock = []
    for f in base.iterdir():
        if f.name.endswith(".json"):
            stock.append((f.name, Resource.from_contents(json.loads(f.read_text()))))
    registry = Registry().with_resources(stock)
    schema = json.loads(base.joinpath(name).read_text())
    return jsonschema.Draft202012Validator(schema, registry=registry)


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def test_exact_int():
    assert exact_int("12345") == 12345
    assert exact_int("1e7") == 10**7
    assert exact_int("1E7") == 10**7
    assert exact_int("6.5e9") == 6_500_000_000
    assert exact_int("2.0") == 2
    assert exact_int("1e4299") == 10**4299  # 4300 digits, CPython's int-string limit
    import argparse

    for bad in ("1.5", "abc", "6.55e1", "inf", "-Infinity", "NaN", "sNaN", "1e4300", "1e999999999"):
        with pytest.raises(argparse.ArgumentTypeError):
            exact_int(bad)


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------

def test_validate_family(capsys):
    code, out = run(capsys, "validate", "--p", "3", "--q", "1")
    doc = json.loads(out)
    assert code == 0
    assert doc["triplet"] == {"d": 10, "alpha": 12, "beta": 8, "kappa0": 1}
    assert doc["family"] == {"p": 3, "q": 1}
    assert doc["attractor_minima"] == [4]
    assert doc["decomposition"] == {"lambda0": 2, "nu0": 1}
    schema_validator("validate.schema.json").validate(doc)


def test_validate_invalid(capsys):
    code, out = run(capsys, "validate", "--d", "4", "--alpha", "6", "--beta", "3")
    doc = json.loads(out)
    assert code == 1
    assert doc["valid"] is False
    assert doc["error"]["code"] == "sum_condition"
    schema_validator("validate.schema.json").validate(doc)


def test_validate_classic(capsys):
    code, out = run(capsys, "validate", "--d", "2", "--alpha", "3", "--beta", "1")
    doc = json.loads(out)
    assert code == 0
    assert doc["decomposition"]["nu0"] == 2
    assert doc["family"] == {"p": 0, "q": 0}


def test_validate_52_diagnostics(capsys):
    code, out = run(capsys, "validate", "--p", "5", "--q", "2")
    doc = json.loads(out)
    assert code == 0
    assert doc["attractor_minima"] == [8, 76200, 87176]
    assert any("32" in note for note in doc["diagnostics"])


# ---------------------------------------------------------------------------
# traj
# ---------------------------------------------------------------------------

def test_traj_135(capsys):
    code, out = run(capsys, "traj", "--p", "3", "--q", "1", "--n", "135")
    values = [int(x) for x in out.splitlines() if not x.startswith("#")]
    assert code == 0
    assert len(values) == 49  # 48 steps
    assert values[:3] == [135, 166, 204]
    assert values[-4:] == TRAJ_135_TAIL


def test_traj_83(capsys):
    code, out = run(capsys, "traj", "--p", "2", "--q", "0", "--n", "83")
    values = [int(x) for x in out.splitlines() if not x.startswith("#")]
    assert values[-3:] == [100, 20, 4]


def test_traj_at_attractor(capsys):
    code, out = run(capsys, "traj", "--n", "4", "--p", "3", "--q", "1", "--format", "json")
    doc = json.loads(out)
    assert doc["values"] == [4]
    assert doc["stopped_at"] == 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_descent(capsys):
    code, out = run(capsys, "verify", "--p", "3", "--q", "1", "--to", "1e4", "--mode", "descent")
    doc = json.loads(out)
    assert code == 0
    assert doc["pass"] is True
    assert doc["failures"] == []
    assert "wall_time" not in doc  # deterministic by default
    schema_validator("scan_report.schema.json").validate(doc)


def test_descent_report_from_above_one_names_its_assumption(capsys):
    validator = schema_validator("scan_report.schema.json")
    base = ("verify", "--p", "3", "--q", "1", "--to", "3000")
    docs = {}
    for extra in ((), ("--from", "1"), ("--from", "2"), ("--from", "1500"), ("--from", "1500", "--mode", "attractor")):
        code, out = run(capsys, *base, *extra)
        assert code == 0
        docs[extra] = json.loads(out)
        validator.validate(docs[extra])
    assert docs[("--from", "2")]["assumes_verified_below"] == 2
    assert docs[("--from", "1500")]["assumes_verified_below"] == 1500
    for extra in ((), ("--from", "1"), ("--from", "1500", "--mode", "attractor")):
        assert "assumes_verified_below" not in docs[extra]
    assert docs[()] == docs[("--from", "1")]
    with pytest.raises(jsonschema.ValidationError):
        validator.validate(dict(docs[()], assumes_verified_below=1))


def test_verify_attractor_52(capsys):
    code, out = run(
        capsys, "verify", "--p", "5", "--q", "2", "--to", "2e3", "--mode", "attractor"
    )
    doc = json.loads(out)
    assert code == 0
    assert doc["minima"] == [8, 76200, 87176]


def test_verify_csv(capsys):
    code, out = run(
        capsys, "verify", "--p", "0", "--q", "0", "--to", "500",
        "--mode", "attractor", "--format", "csv",
    )
    header, row = out.splitlines()
    assert header.startswith("label,n_start,n_end,mode,verified")
    assert row.startswith("(2,3,1)+,1,500,attractor,500")


def test_verify_deterministic_across_workers(capsys):
    argv = ["verify", "--p", "3", "--q", "1", "--to", "3e3", "--mode", "descent"]
    _, a = run(capsys, *argv, "--workers", "1")
    _, b = run(capsys, *argv, "--workers", "3")
    assert a == b


def test_attractor_verify_same_bytes_at_every_memo(capsys):
    # block sizes 65536, 100000 and 1000 reach the array memo in a block past
    # the first, one block from 1, and the dict memo in blocks far from 1
    argv = ["verify", "--d", "12", "--alpha", "14", "--beta", "10", "--mode", "attractor",
            "--minima", "4,5", "--budget", "1e4", "--to", "1e5"]
    reports = []
    for size in (65536, 100000, 1000):
        code, out = run(capsys, *argv, "--block-size", str(size))
        doc = json.loads(out)
        assert code == 1 and doc.pop("block_size") == size
        reports.append(doc)
    assert reports[0] == reports[1] == reports[2]
    assert len(reports[0]["failures"]) == 416


def test_verify_rejects_sieve(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--p", "3", "--q", "1", "--to", "5e3", "--sieve"])
    assert exc.value.code == 2


@pytest.mark.parametrize("first", ['{"type": "scan_he', '{"block_start": 1, "type": "block"}'])
def test_verify_refuses_headerless_checkpoint(tmp_path, capsys, first):
    ck = tmp_path / "scan.ndjson"
    ck.write_text(first + "\n")
    code = main(["verify", "--p", "3", "--q", "1", "--to", "3e3", "--checkpoint", str(ck)])
    assert code == 1
    assert capsys.readouterr().err.splitlines()[-1].startswith(f"error: checkpoint {ck}")


@pytest.mark.parametrize(
    "bad",
    [
        '{"block_start": 1, "type": "block"}',
        '{"block_start": 1, "type": "block", "verified": null, "failures": [], "max_sigma": null}',
    ],
    ids=["missing", "null"],
)
def test_verify_refuses_malformed_checkpoint_record(tmp_path, capsys, bad):
    ck = tmp_path / "scan.ndjson"
    argv = ["verify", "--p", "3", "--q", "1", "--to", "3e3", "--block-size", "1000", "--checkpoint", str(ck)]
    assert main(argv) == 0
    header = ck.read_text().splitlines()[0]
    ck.write_text(header + "\n" + bad + "\n")
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.splitlines()[-1].startswith(f"error: checkpoint {ck} has a malformed record")
    assert "Traceback" not in err


NOT_TOTAL = ("--d", "3", "--alpha", "4", "--beta", "-5", "--kappa", "-1")


@pytest.mark.parametrize(
    "argv",
    [("traj", "--n", "1"), ("cycles", "--to", "5"), ("identities", "--theorem", "31"),
     ("verify", "--to", "10")],
    ids=["traj", "cycles", "identities", "verify"],
)
def test_not_total_triplet_is_a_named_error(capsys, argv):
    code = main([*argv, *NOT_TOTAL])
    err = capsys.readouterr().err
    assert code == 1
    assert err.splitlines()[-1].startswith("error [not_total]: (3,4,-5)-")
    assert "Traceback" not in err


OVERSIZED = "error [OverflowError]: cannot fit 'int' into an index-sized integer"
BLOCKS_1E30 = "error [OverflowError]: 15258789062500000000000000 blocks of 65536 seeds do not fit an index"


@pytest.mark.parametrize(
    "argv, message",
    [
        (("verify", "--p", "3", "--q", "1", "--to", "10", "--block-size", "0"), "error: need block_size >= 1, got 0"),
        (("verify", "--p", "3", "--q", "1", "--to", "10", "--block-size", "-1"), "error: need block_size >= 1, got -1"),
        (("verify", "--p", "3", "--q", "1", "--to", "10", "--budget", "0"), "error: need budget >= 1, got 0"),
        (("table", "--p-max", "1", "--n-max", "20", "--budget", "0"), "error: need budget >= 1, got 0"),
        (("verify", "--p", "3", "--q", "1", "--to", "10", "--workers", "0"), "error: need workers >= 1, got 0"),
        (("verify", "--p", "3", "--q", "1", "--to", "10", "--workers", "-2"), "error: need workers >= 1, got -2"),
        (("table", "--p-max", "1", "--n-max", "20", "--workers", "0"), "error: need workers >= 1, got 0"),
        (("table", "--p-max", "1", "--n-max", "20", "--workers", "-2"), "error: need workers >= 1, got -2"),
        (("verify", "--p", "1", "--q", "0", "--to", "50", "--minima=-3"), "error: need minima >= 1, got -3"),
        (("verify", "--p", "1", "--q", "0", "--to", "50", "--mode", "attractor", "--minima", "0"),
         "error: need minima >= 1, got 0"),
        (("traj", "--p", "1", "--q", "0", "--n", "5", "--stop", "0"), "error: need minima >= 1, got 0"),
        (("traj", "--p", "3", "--q", "1", "--n", "1", "--descend"), "error: need n >= 2, got 1"),
        (("cycles", "--p", "3", "--q", "1", "--to", "10", "--budget", "0"), "error: need budget >= 1, got 0"),
        (("cycles", "--p", "3", "--q", "1", "--to", "-5"), "error: need n_max >= 1, got -5"),
        (("identities", "--p", "3", "--q", "1", "--theorem", "31", "--trials", "0"), "error: need trials >= 1, got 0"),
        (("identities", "--p", "3", "--q", "1", "--theorem", "31", "--trials", "-1"), "error: need trials >= 1, got -1"),
        # bounds too large to index a memo: refused at the allocation, before any seed
        (("cycles", "--p", "1", "--q", "0", "--to", "1e30"), OVERSIZED),
        (("table", "--p-max", "0", "--n-max", "1e30"), OVERSIZED),
        # a block count too large to index: refused before the first block is listed
        (("verify", "--p", "1", "--q", "0", "--to", "1e30"), BLOCKS_1E30),
        (("verify", "--p", "1", "--q", "0", "--mode", "attractor", "--to", "1e30"), BLOCKS_1E30),
        # bounds that fit an index but not memory: the memo's size is named, nothing is allocated
        (("cycles", "--p", "1", "--q", "0", "--to", "4e18"),
         "error [MemoryError]: a memo of seeds up to 4000000000000000000 needs 48000000000000000012 bytes"),
        (("table", "--p-max", "0", "--n-max", "4e18"),
         "error [MemoryError]: a memo of seeds up to 4000000000000000000 needs 20000000000000000005 bytes"),
        (("verify", "--p", "1", "--q", "0", "--mode", "attractor", "--to", "4e18", "--block-size", "4e18"),
         "error [MemoryError]: a memo of seeds up to 4000000000000000000 needs 20000000000000000005 bytes"),
    ],
    ids=["verify-block-0", "verify-block-neg", "verify-budget", "table-budget", "verify-workers-0",
         "verify-workers-neg", "table-workers-0", "table-workers-neg", "verify-minima-neg",
         "verify-attractor-minima-0", "traj-stop-0", "traj-descend-n-1", "cycles-budget",
         "cycles-to-neg", "identities-trials-0", "identities-trials-neg", "cycles-to-1e30",
         "table-n-max-1e30", "verify-to-1e30", "verify-attractor-to-1e30", "cycles-to-4e18",
         "table-n-max-4e18", "verify-attractor-4e18"],
)
def test_bad_budget_or_block_size_is_a_named_error(capsys, argv, message):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.splitlines()[-1] == message
    assert captured.out == ""


def test_main_names_internal_errors(capsys, monkeypatch):
    from gcollatz import dynamics
    from gcollatz.core import InternalError
    from gcollatz.family import VerificationError

    for exc in (InternalError("T(1) is not a positive integer"), VerificationError("cycle does not close")):
        def fail(*args, **kwargs):
            raise exc
        monkeypatch.setattr(dynamics, "trajectory", fail)
        assert main(["traj", "--p", "0", "--q", "0", "--n", "3"]) == 1
        assert capsys.readouterr().err.splitlines()[-1] == f"error [{type(exc).__name__}]: {exc}"

    def out_of_memory(*args, **kwargs):
        raise MemoryError("memo of 1000000001 seeds")
    monkeypatch.setattr(dynamics, "max_stopping_scans", out_of_memory)
    assert main(["table", "--p-max", "0", "--n-max", "1e9"]) == 1
    assert capsys.readouterr().err.splitlines()[-1] == "error [MemoryError]: memo of 1000000001 seeds"


def test_traj_refuses_stop_with_descend(capsys):
    # one stop rule per trajectory: --descend used to drop --stop silently
    with pytest.raises(SystemExit) as exc:
        main(["traj", "--p", "3", "--q", "1", "--n", "75", "--stop", "40", "--descend"])
    assert exc.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err


@pytest.mark.parametrize("cmd", [["validate"], ["traj", "--n", "75"]])
def test_family_selector_refuses_kappa_minus_one(capsys, cmd):
    # every (p, q) member has kappa0 = +1: --kappa -1 used to be dropped silently
    with pytest.raises(SystemExit) as exc:
        main([*cmd, "--p", "3", "--q", "1", "--kappa", "-1"])
    assert exc.value.code == 2
    assert "--kappa -1" in capsys.readouterr().err


def test_traj_and_table_json_schemas(capsys):
    _, out = run(capsys, "traj", "--p", "3", "--q", "1", "--n", "75", "--format", "json")
    schema_validator("trajectory.schema.json").validate(json.loads(out))
    _, out = run(capsys, "traj", "--p", "3", "--q", "1", "--n", "2", "--descend", "--format", "json")
    assert json.loads(out)["terminal"] == "cycle"
    schema_validator("trajectory.schema.json").validate(json.loads(out))
    _, out = run(capsys, "table", "--p-max", "1", "--n-max", "200", "--format", "json")
    schema_validator("table.schema.json").validate(json.loads(out))


# ---------------------------------------------------------------------------
# table
# ---------------------------------------------------------------------------

def test_table_small(capsys):
    code, out = run(capsys, "table", "--p-max", "0", "--n-max", "10")
    lines = out.splitlines()
    assert code == 0
    assert lines[0].split(",")[:4] == ["p", "max_sigma", "q_at_max", "n_at_max"]
    row = lines[1].split(",")
    assert row[0] == "0" and row[1] == "13" and row[3] == "9"
    assert row[-2] == "246" and row[-1] == "False"  # reference comparison column


def test_table_reference_column_reads_the_bundled_file(capsys, monkeypatch):
    # the comparison values live in data/reference_max_sigma.json, by p
    doc = json.loads(resources.files("gcollatz").joinpath("data/reference_max_sigma.json").read_text())
    assert doc["n_max"] == 10**7
    ref = {int(p): s for p, s in doc["max_sigma"].items()}
    assert sorted(ref) == list(range(26))
    assert [ref[p] for p in range(5)] == [246, 213, 268, 374, 349]
    monkeypatch.setattr(cli, "_reference_max_sigma", lambda: {0: 13})
    code, out = run(capsys, "table", "--p-max", "1", "--n-max", "10")
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert [row[-2:] for row in rows] == [["13", "True"], ["", ""]]


def test_table_rejects_empty_range(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["table", "--p-max", "0", "--n-max", "0"])
    assert exc.value.code == 2


def test_table_runs_every_column_in_one_pool(capsys, monkeypatch):
    # all 10 columns of rows p <= 3 share one process pool (one per row
    # before), and the rows are those of max_stopping_scans run row by row
    import concurrent.futures
    import os

    from gcollatz import dynamics

    pools = []

    class CountingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(kwargs.get("max_workers"))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)  # a pool of 2 on a 1-CPU machine too
    argv = ["table", "--p-max", "3", "--n-max", "500", "--workers", "2"]
    csv_code, csv_out = run(capsys, *argv)
    json_code, json_out = run(capsys, *argv, "--format", "json")
    assert pools == [2, 2] and csv_code == json_code == 0

    rows = []
    for p in range(4):
        (scan,) = dynamics.max_stopping_scans([p], 500, workers=1)
        row = {k: v for k, v in scan.to_dict().items() if k not in ("schema", "n_max", "budget", "per_map")}
        row["reference"] = cli._reference_max_sigma()[p]
        row["matches_reference"] = scan.max_sigma == row["reference"]
        rows.append(row)
    assert json.loads(json_out)["rows"] == rows
    assert csv_out.splitlines() == [",".join(rows[0])] + [",".join(map(str, r.values())) for r in rows]


def test_pool_never_outnumbers_the_cpus(capsys, monkeypatch):
    # --workers 5000 (or GCOLLATZ_WORKERS=5000) would be one process per
    # block; the pool gets at most os.cpu_count() of them, none on one CPU or
    # when the count is unknown, and the report is the serial run's bytes.
    # The stand-in pool records its size and runs the jobs in-process, so no
    # process starts.
    import concurrent.futures
    import os

    pools = []

    class InlinePool:
        def __init__(self, max_workers=None):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    monkeypatch.delenv("GCOLLATZ_WORKERS", raising=False)
    verify = ["verify", "--p", "0", "--q", "0", "--to", "5000", "--block-size", "500"]
    table = ["table", "--p-max", "2", "--n-max", "300"]
    serial = {"verify": run(capsys, *verify), "table": run(capsys, *table)}
    assert pools == []
    for cpus, pool in ((3, [3]), (1, []), (None, [])):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        for argv in (verify, table):
            pools.clear()
            assert run(capsys, *argv, "--workers", "5000") == serial[argv[0]]
            assert pools == pool, (argv[0], cpus)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)  # more CPUs than the 6 columns
    monkeypatch.setenv("GCOLLATZ_WORKERS", "5000")
    pools.clear()
    assert run(capsys, *verify) == serial["verify"] and run(capsys, *table) == serial["table"]
    assert pools == [10, 6]


def test_table_checkpoint_resumes_with_the_same_bytes(tmp_path, capsys):
    # a journaled run, a rerun from the whole journal and one from a journal
    # that lost its last column all print what a run without a journal prints
    ck = tmp_path / "table.ndjson"
    argv = ["table", "--p-max", "3", "--n-max", "2000"]
    _, plain = run(capsys, *argv)
    outs = [run(capsys, *argv, "--checkpoint", str(ck))]
    outs.append(run(capsys, *argv, "--checkpoint", str(ck)))
    lines = ck.read_text().splitlines()
    assert len(lines) == 1 + 10
    ck.write_text("\n".join(lines[:-1]) + "\n")
    outs.append(run(capsys, *argv, "--checkpoint", str(ck)))
    assert outs == [(0, plain)] * 3
    assert ck.read_text().splitlines() == lines


def test_table_checkpoint_refuses_another_n_max(tmp_path, capsys):
    ck = tmp_path / "table.ndjson"
    assert main(["table", "--p-max", "1", "--n-max", "500", "--checkpoint", str(ck)]) == 0
    journal = ck.read_bytes()
    capsys.readouterr()
    assert main(["table", "--p-max", "1", "--n-max", "600", "--checkpoint", str(ck)]) == 1
    assert capsys.readouterr().err.splitlines()[-1] == f"error: checkpoint {ck} belongs to a different scan"
    assert ck.read_bytes() == journal


def test_cold_start_imports_no_process_pool():
    # only a run that builds a pool loads multiprocessing; a serial run never
    # does.  A cold start loads the package, cli, core and family only, and a
    # command loads the module it runs: validate never loads dynamics
    import os
    import subprocess
    import sys
    import textwrap
    from pathlib import Path

    import gcollatz

    src = str(Path(gcollatz.__file__).resolve().parents[1])
    code = textwrap.dedent("""
        import sys, gcollatz.cli, gcollatz.family
        gcollatz.family.exceptional_registry()
        print(sorted({'multiprocessing', 'concurrent.futures.process'} & set(sys.modules)))
        print(sorted(m for m in sys.modules if m.partition('.')[0] == 'gcollatz'))
        import contextlib, io
        with contextlib.redirect_stdout(io.StringIO()):
            status = gcollatz.cli.main(['validate', '--p', '3', '--q', '1'])
        print(status, 'gcollatz.dynamics' in sys.modules)
    """)
    res = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=src), timeout=60,
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines() == [
        "[]",
        "['gcollatz', 'gcollatz.cli', 'gcollatz.core', 'gcollatz.family']",
        "0 False",
    ]


def test_package_namespace_resolves_every_public_name():
    # every public name is the object its submodule defines, whether reached
    # by attribute, star import or dir(); an unknown name is an AttributeError
    import importlib

    import gcollatz

    assert gcollatz.__all__
    for name in gcollatz.__all__:
        obj = getattr(gcollatz, name)
        assert obj.__module__.startswith("gcollatz.")
        assert getattr(importlib.import_module(obj.__module__), name) is obj
    namespace = {}
    exec("from gcollatz import *", namespace)
    assert {k for k in namespace if k != "__builtins__"} == set(gcollatz.__all__)
    assert set(gcollatz.__all__) <= set(dir(gcollatz))
    with pytest.raises(AttributeError, match="no_such_name"):
        gcollatz.no_such_name


# ---------------------------------------------------------------------------
# cycles
# ---------------------------------------------------------------------------

def test_cycles_mod12(capsys):
    code, out = run(
        capsys, "cycles", "--d", "12", "--alpha", "14", "--beta", "10", "--to", "2e3"
    )
    doc = json.loads(out)
    assert code == 0
    assert [c["omega"] for c in doc["cycles"]] == [4, 5, 1305]
    schema_validator("cycles.schema.json").validate(doc)


def test_cycles_equal_family(capsys):
    code, out = run(capsys, "cycles", "--p", "2", "--q", "2", "--to", "1e3")
    assert [c["omega"] for c in json.loads(out)["cycles"]] == [1, 67]
    code, out = run(capsys, "cycles", "--p", "0", "--q", "0", "--to", "1e3")
    assert [c["omega"] for c in json.loads(out)["cycles"]] == [1]


# ---------------------------------------------------------------------------
# identities
# ---------------------------------------------------------------------------

def test_identities_thm31(capsys):
    code, out = run(
        capsys, "identities", "--theorem", "31", "--p", "0", "--q", "0",
        "--trials", "1e3", "--seed", "7",
    )
    doc = json.loads(out)
    assert code == 0
    assert doc["pass"] is True and doc["mismatches"] == []
    schema_validator("identity_report.schema.json").validate(doc)


def test_identities_thm32_precondition(capsys):
    code, out = run(capsys, "identities", "--theorem", "32", "--p", "3", "--q", "1")
    doc = json.loads(out)
    assert code == 1
    assert doc["error"]["code"] == "lambda0_not_one"
    schema_validator("identity_report.schema.json").validate(doc)


def test_identities_thm33(capsys):
    code, out = run(
        capsys, "identities", "--theorem", "33", "--d", "3", "--alpha", "4",
        "--beta", "-1", "--trials", "1e3",
    )
    assert code == 0 and json.loads(out)["pass"] is True


# ---------------------------------------------------------------------------
# graph
# ---------------------------------------------------------------------------

def test_graph_dot(capsys):
    code, out = run(
        capsys, "graph", "--p", "0", "--q", "0", "--root", "1", "--depth", "4",
        "--format", "dot",
    )
    assert code == 0
    assert out.startswith("digraph inverse_orbit {")
    assert "  16 -> 8;" in out and "  2 -> 1;" in out


def test_graph_depth_one(capsys):
    code, out = run(
        capsys, "graph", "--p", "3", "--q", "1", "--root", "4", "--depth", "1",
        "--format", "json",
    )
    doc = json.loads(out)
    assert doc["edges"] == [[2, 4], [40, 4]]
    schema_validator("inverse_graph.schema.json").validate(doc)


def test_graph_truncation(capsys):
    code, out = run(
        capsys, "graph", "--p", "0", "--q", "0", "--root", "2", "--depth", "3",
        "--max-nodes", "1", "--format", "json",
    )
    assert json.loads(out)["truncated"] is True


@pytest.mark.parametrize("root, depth", [("0", "0"), ("0", "2"), ("-3", "1")])
def test_graph_refuses_root_below_one(capsys, root, depth):
    code = main(["graph", "--p", "0", "--q", "0", "--root", root, "--depth", depth])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == f"error: need n >= 1, got {root}\n"
    assert captured.out == ""


def test_graph_deterministic(capsys):
    argv = ("graph", "--p", "0", "--q", "0", "--root", "1", "--depth", "6")
    _, a = run(capsys, *argv)
    _, b = run(capsys, *argv)
    assert a == b


# ---------------------------------------------------------------------------
# exact report bytes
# ---------------------------------------------------------------------------

# stdout of every subcommand and format, byte for byte
GOLDEN_STDOUT = {
    "validate-family": (
        "validate --p 3 --q 1".split(),
        0,
        """\
{
  "artifact_version": "0.1.0",
  "attractor_minima": [
    4
  ],
  "decomposition": {
    "lambda0": 2,
    "nu0": 1
  },
  "family": {
    "p": 3,
    "q": 1
  },
  "label": "(10,12,8)+",
  "schema": "gcollatz.validate/1",
  "triplet": {
    "alpha": 12,
    "beta": 8,
    "d": 10,
    "kappa0": 1
  },
  "valid": true
}
""",
    ),
    "validate-invalid": (
        "validate --p 1 --q 3".split(),
        1,
        """\
{
  "artifact_version": "0.1.0",
  "error": {
    "code": "q_gt_p",
    "message": "need 0 <= q <= p, got p=1, q=3"
  },
  "params": {
    "kappa0": 1,
    "p": 1,
    "q": 3
  },
  "schema": "gcollatz.validate/1",
  "valid": false
}
""",
    ),
    "traj-text": (
        "traj --p 3 --q 1 --n 75".split(),
        0,
        """\
75
94
116
144
176
216
264
320
32
40
4
# terminal=hit_attractor steps=10
""",
    ),
    "traj-json": (
        "traj --p 3 --q 1 --n 75 --descend --format json".split(),
        0,
        """\
{
  "artifact_version": "0.1.0",
  "label": "(10,12,8)+",
  "schema": "gcollatz.trajectory/1",
  "start": 75,
  "stop": "descent",
  "stopped_at": 8,
  "terminal": "descended",
  "triplet": {
    "alpha": 12,
    "beta": 8,
    "d": 10,
    "kappa0": 1
  },
  "values": [
    75,
    94,
    116,
    144,
    176,
    216,
    264,
    320,
    32
  ]
}
""",
    ),
    "traj-descend-cycle": (
        "traj --p 3 --q 1 --n 2 --descend".split(),
        0,
        """\
2
4
8
16
24
32
40
4
8
16
24
32
40
4
# terminal=cycle steps=13
""",
    ),
    "cycles": (
        "cycles --p 0 --q 0 --to 10".split(),
        0,
        """\
{
  "artifact_version": "0.1.0",
  "budget": 1000000,
  "cycles": [
    {
      "length": 2,
      "members": [
        1,
        2
      ],
      "omega": 1
    }
  ],
  "exhausted": [],
  "label": "(2,3,1)+",
  "n_max": 10,
  "schema": "gcollatz.cycles/1",
  "triplet": {
    "alpha": 3,
    "beta": 1,
    "d": 2,
    "kappa0": 1
  }
}
""",
    ),
    "cycles-exhausted": (
        "cycles --d 12 --alpha 14 --beta 10 --to 300 --budget 20".split(),
        0,
        """\
{
  "artifact_version": "0.1.0",
  "budget": 20,
  "cycles": [
    {
      "length": 6,
      "members": [
        4,
        8,
        16,
        22,
        34,
        48
      ],
      "omega": 4
    },
    {
      "length": 7,
      "members": [
        5,
        10,
        20,
        30,
        40,
        50,
        60
      ],
      "omega": 5
    }
  ],
  "exhausted": [
    7,
    9,
    14,
    18,
    19,
    21,
    26,
    29,
    31,
    32,
    33,
    37,
    38,
    42,
    44,
    49,
    54,
    55,
    58,
    63,
    67,
    68,
    70,
    71,
    73,
    75,
    76,
    77,
    79,
    81,
    84,
    86,
    89,
    90,
    92,
    93,
    94,
    97,
    98,
    99,
    102,
    103,
    105,
    108,
    110,
    113,
    114,
    116,
    119,
    121,
    124,
    126,
    130,
    131,
    135,
    136,
    137,
    139,
    143,
    148,
    149,
    151,
    152,
    155,
    157,
    160,
    162,
    163,
    164,
    168,
    169,
    173,
    176,
    177,
    178,
    179,
    181,
    182,
    183,
    184,
    185,
    187,
    189,
    190,
    191,
    194,
    195,
    196,
    197,
    198,
    199,
    201,
    206,
    211,
    212,
    213,
    214,
    215,
    216,
    217,
    218,
    219,
    220,
    221,
    223,
    224,
    225,
    227,
    228,
    229,
    230,
    232,
    233,
    234,
    236,
    237,
    238,
    241,
    242,
    243,
    245,
    247,
    249,
    251,
    252,
    254,
    256,
    257,
    258,
    259,
    261,
    262,
    263,
    266,
    267,
    268,
    269,
    270,
    271,
    273,
    274,
    276,
    278,
    279,
    282,
    283,
    284,
    285,
    286,
    289,
    290,
    291,
    293,
    294,
    297,
    298,
    299
  ],
  "label": "(12,14,10)+",
  "n_max": 300,
  "schema": "gcollatz.cycles/1",
  "triplet": {
    "alpha": 14,
    "beta": 10,
    "d": 12,
    "kappa0": 1
  }
}
""",
    ),
    "cycles-exhausted-minus": (
        "cycles --d 3 --alpha 4 --beta 1 --kappa -1 --to 200 --budget 12".split(),
        0,
        """\
{
  "artifact_version": "0.1.0",
  "budget": 12,
  "cycles": [
    {
      "length": 3,
      "members": [
        1,
        2,
        3
      ],
      "omega": 1
    }
  ],
  "exhausted": [
    5,
    7,
    8,
    10,
    11,
    14,
    15,
    16,
    17,
    19,
    21,
    22,
    23,
    24,
    25,
    26,
    28,
    30,
    31,
    32,
    33,
    34,
    35,
    37,
    38,
    41,
    42,
    43,
    44,
    45,
    46,
    47,
    48,
    49,
    50,
    51,
    52,
    53,
    55,
    56,
    57,
    58,
    59,
    61,
    62,
    63,
    64,
    66,
    67,
    68,
    69,
    70,
    71,
    72,
    73,
    74,
    75,
    76,
    77,
    78,
    79,
    80,
    82,
    83,
    84,
    85,
    86,
    88,
    89,
    90,
    91,
    92,
    93,
    94,
    95,
    96,
    97,
    98,
    99,
    100,
    101,
    102,
    103,
    104,
    105,
    106,
    107,
    109,
    110,
    111,
    112,
    113,
    114,
    115,
    116,
    118,
    119,
    122,
    123,
    124,
    125,
    126,
    127,
    128,
    129,
    130,
    131,
    132,
    133,
    134,
    135,
    137,
    138,
    139,
    140,
    141,
    142,
    143,
    144,
    145,
    146,
    147,
    148,
    149,
    150,
    151,
    152,
    153,
    154,
    155,
    156,
    157,
    158,
    159,
    160,
    161,
    163,
    164,
    165,
    166,
    167,
    168,
    169,
    170,
    171,
    172,
    173,
    174,
    175,
    176,
    177,
    178,
    179,
    181,
    183,
    184,
    185,
    186,
    187,
    188,
    189,
    190,
    191,
    192,
    193,
    194,
    195,
    196,
    197,
    198,
    199,
    200
  ],
  "label": "(3,4,1)-",
  "n_max": 200,
  "schema": "gcollatz.cycles/1",
  "triplet": {
    "alpha": 4,
    "beta": 1,
    "d": 3,
    "kappa0": -1
  }
}
""",
    ),
    "identities-31": (
        "identities --p 3 --q 1 --theorem 31 --trials 5".split(),
        0,
        """\
{
  "artifact_version": "0.1.0",
  "label": "(10,12,8)+",
  "mismatches": [],
  "pass": true,
  "schema": "gcollatz.identity_report/1",
  "seed": 0,
  "theorem": "31",
  "trials": 5,
  "triplet": {
    "alpha": 12,
    "beta": 8,
    "d": 10,
    "kappa0": 1
  }
}
""",
    ),
    "graph-dot": (
        "graph --d 3 --alpha 4 --beta 1 --kappa -1 --root 1 --depth 2".split(),
        0,
        """\
digraph inverse_orbit {
  1;
  2;
  3;
  9;
  1 -> 2;
  2 -> 3;
  3 -> 1;
  9 -> 3;
}
""",
    ),
    "verify-json": (
        "verify --p 8 --q 3 --to 3e3".split(),
        0,
        """\
{
  "artifact_version": "0.1.0",
  "block_size": 65536,
  "budget": 1000000,
  "cursor": 3001,
  "failures": [],
  "label": "(264,272,256)+",
  "max_sigma": {
    "n": 3,
    "steps": 40
  },
  "minima": [
    32
  ],
  "mode": "descent",
  "pass": true,
  "range": [
    1,
    3000
  ],
  "schema": "gcollatz.scan_report/1",
  "triplet": {
    "alpha": 272,
    "beta": 256,
    "d": 264,
    "kappa0": 1
  },
  "verified": 3000
}
""",
    ),
    "verify-csv-pass": (
        "verify --p 3 --q 1 --to 3e3 --format csv".split(),
        0,
        """\
label,n_start,n_end,mode,verified,failures,max_sigma_n,max_sigma_steps,pass
(10,12,8)+,1,3000,descent,3000,,2077,62,True
""",
    ),
    "verify-csv-failures": (
        "verify --d 12 --alpha 14 --beta 10 --to 50 --mode attractor --minima 4 --format csv".split(),
        1,
        """\
label,n_start,n_end,mode,verified,failures,max_sigma_n,max_sigma_steps,pass
(12,14,10)+,1,50,attractor,40,5;10;15;20;25;30;35;40;45;50,31,28,False
""",
    ),
    "verify-csv-no-record": (
        "verify --p 0 --q 0 --from 1 --to 1 --mode attractor --format csv".split(),
        0,
        """\
label,n_start,n_end,mode,verified,failures,max_sigma_n,max_sigma_steps,pass
(2,3,1)+,1,1,attractor,1,,,,True
""",
    ),
    "table-csv": (
        "table --p-max 1 --n-max 200".split(),
        0,
        """\
p,max_sigma,q_at_max,n_at_max,max_sigma_trivial,q_at_max_trivial,n_at_max_trivial,unknown,reference,matches_reference
0,79,0,171,79,0,171,0,246,False
1,29,0,187,27,1,129,0,213,False
""",
    ),
    "table-json": (
        "table --p-max 1 --n-max 200 --format json".split(),
        0,
        """\
{
  "artifact_version": "0.1.0",
  "budget": 1000000,
  "n_max": 200,
  "rows": [
    {
      "matches_reference": false,
      "max_sigma": 79,
      "max_sigma_trivial": 79,
      "n_at_max": 171,
      "n_at_max_trivial": 171,
      "p": 0,
      "q_at_max": 0,
      "q_at_max_trivial": 0,
      "reference": 246,
      "unknown": 0
    },
    {
      "matches_reference": false,
      "max_sigma": 29,
      "max_sigma_trivial": 27,
      "n_at_max": 187,
      "n_at_max_trivial": 129,
      "p": 1,
      "q_at_max": 0,
      "q_at_max_trivial": 1,
      "reference": 213,
      "unknown": 0
    }
  ],
  "schema": "gcollatz.table/1"
}
""",
    ),
    "graph-json": (
        "graph --d 3 --alpha 4 --beta 1 --kappa -1 --root 1 --depth 1 --format json".split(),
        0,
        """\
{
  "edges": [
    [
      3,
      1
    ]
  ],
  "nodes": [
    1,
    3
  ],
  "roots": [
    1
  ],
  "schema": "gcollatz.inverse_graph/1",
  "triplet": {
    "alpha": 4,
    "beta": 1,
    "d": 3,
    "kappa0": -1
  },
  "truncated": true
}
""",
    ),
}


@pytest.mark.parametrize("argv, code, out", GOLDEN_STDOUT.values(), ids=GOLDEN_STDOUT.keys())
def test_report_bytes(capsys, argv, code, out):
    assert run(capsys, *argv) == (code, out)


# ---------------------------------------------------------------------------
# misc plumbing
# ---------------------------------------------------------------------------

def test_out_writes_file(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, out = run(
        capsys, "validate", "--p", "0", "--q", "0", "--out", str(path)
    )
    assert code == 0 and out == ""
    assert json.loads(path.read_text())["valid"] is True


def test_registry_document_matches_schema():
    doc = json.loads(
        resources.files("gcollatz").joinpath("data/exceptional_cycles.json").read_text()
    )
    schema_validator("registry.schema.json").validate(doc)


def test_workers_env_default(monkeypatch):
    from gcollatz.cli import default_workers

    monkeypatch.delenv("GCOLLATZ_WORKERS", raising=False)
    assert default_workers() == 1
    monkeypatch.setenv("GCOLLATZ_WORKERS", "6")
    assert default_workers() == 6
    monkeypatch.setenv("GCOLLATZ_WORKERS", "junk")
    assert default_workers() == 1


def test_workers_env_read_at_each_call(capsys, monkeypatch):
    # the parser is built once per process, but --workers falls back to
    # GCOLLATZ_WORKERS as it is when main() is called
    argv = ["table", "--p-max", "0", "--n-max", "10"]
    headers = []
    for workers in ("1", "3"):
        monkeypatch.setenv("GCOLLATZ_WORKERS", workers)
        assert main(argv) == 0
        headers.append(capsys.readouterr().err)
    assert headers == [f"# table p<= 0 n_max=10 budget=1000000 workers={w}\n" for w in (1, 3)]
    assert cli._parser() is cli._parser()


def test_console_script_entry_point():
    """The `[project.scripts]` target runs as pip's generated wrapper runs it.

    The target is called through the current interpreter, so no install is
    needed; where an installed `gcollatz` script is on PATH, it must print the
    same bytes.
    """
    import os
    import shutil
    import subprocess
    import sys
    from pathlib import Path

    import gcollatz

    try:
        import tomllib
    except ModuleNotFoundError:  # Python < 3.11
        tomllib = pytest.importorskip("tomli")

    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as f:
        target = tomllib.load(f)["project"]["scripts"]["gcollatz"]
    module, attr = target.split(":")

    src = str(Path(gcollatz.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    argv = ["validate", "--p", "3", "--q", "1"]

    wrapper = f"import sys; from {module} import {attr}; sys.exit({attr}())"
    res = subprocess.run(
        [sys.executable, "-c", wrapper, *argv],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout)["label"] == "(10,12,8)+"

    installed = shutil.which("gcollatz")
    if installed:
        script = subprocess.run(
            [installed, *argv], capture_output=True, text=True, env=env, timeout=60,
        )
        assert script.returncode == 0, script.stderr
        assert script.stdout == res.stdout
