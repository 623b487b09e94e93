"""The command-line interface."""

import pytest

from repro.cli import main
from tests.conftest import SUM_SOURCE


@pytest.fixture
def source_file(tmp_path):
    f = tmp_path / "prog.c"
    f.write_text(SUM_SOURCE)
    return str(f)


def test_compile_reports_stats(source_file, capsys):
    assert main(["compile", source_file]) == 0
    out = capsys.readouterr().out
    assert "guards" in out
    assert "signed" in out


def test_compile_emit_ir(source_file, capsys):
    main(["compile", source_file, "--emit-ir"])
    out = capsys.readouterr().out
    assert "define" in out
    assert "carat.guard" in out


def test_compile_no_guards(source_file, capsys):
    main(["compile", source_file, "--no-guards", "--emit-ir"])
    out = capsys.readouterr().out
    assert "carat.guard" not in out


def test_run_carat_mode(source_file, capsys):
    code = main(["run", source_file, "--mode", "carat", "--stats"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out.strip() == str(sum(range(64)))
    assert "guards" in captured.err


def test_run_all_modes_agree(source_file, capsys):
    outputs = []
    for mode in ("carat", "baseline", "traditional"):
        main(["run", source_file, "--mode", mode])
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1] == outputs[2]


def test_bench_command(capsys):
    assert main(["bench", "ep", "--scale", "tiny"]) == 0
    out = capsys.readouterr().out
    assert "baseline" in out and "carat" in out and "traditional" in out


def test_bench_without_name_lists_targets(capsys):
    assert main(["bench"]) == 0
    out = capsys.readouterr().out
    assert "hpccg" in out and "xz" in out and "behavior" in out


def test_policy_command(capsys):
    assert main(["policy", "ep", "--scale", "tiny"]) == 0
    out = capsys.readouterr().out
    assert "policy" in out
    assert "frag before" in out and "frag after" in out
    assert "tiering" in out  # tiered by default (--fast-kb 1024)


def test_policy_command_compaction_only(capsys):
    code = main(["policy", "ep", "--fast-kb", "0", "--scatter", "--no-tiering"])
    out = capsys.readouterr().out
    assert code == 0
    assert "compaction" in out
    assert "tiering" not in out


def test_workloads_listing(capsys):
    assert main(["workloads"]) == 0
    out = capsys.readouterr().out
    assert "hpccg" in out and "xz" in out


def test_missing_file():
    with pytest.raises(SystemExit):
        main(["run", "/no/such/file.c"])


@pytest.mark.parametrize(
    "command", ["bench", "smp", "policy", "profile", "sanitize", "trace"]
)
def test_unknown_workload_is_a_clean_error(
    command, capsys, tmp_path, monkeypatch
):
    monkeypatch.chdir(tmp_path)  # "nosuch" must not resolve as a file
    with pytest.raises(SystemExit) as info:
        main([command, "nosuch"])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(
        f"repro {command}: unknown workload 'nosuch'; available: "
    )
    assert "hpccg" in err and "kvservice" in err
    assert "Traceback" not in err
