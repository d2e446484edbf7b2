"""CLI surface: run/validate/metrics, determinism, artifacts, exit codes."""

import json
import os
from pathlib import Path

import pytest

from pidsim.cli import main
from pidsim.scenario import shipped_fixture_path
from pidsim.simnet import SimWorld

DATA = Path(__file__).parent / "data"


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _fixture_data(name: str) -> dict:
    return json.loads(Path(shipped_fixture_path(name)).read_text())


def _strip_banner(out: str) -> str:
    lines = out.splitlines(keepends=True)
    assert lines and lines[0].startswith("pid-sim ")
    return "".join(lines[1:])


def test_run_fig6_stepped(capsys):
    code, out, err = run_cli(capsys, "run", "fig6_classroom")
    assert code == 0, err
    assert "Inquiry complete; 5 devices discovered" in out
    assert "Number services: 7" in out
    assert "Transfer complete" in out


def test_run_live_test_delivers_seven(capsys):
    code, out, err = run_cli(capsys, "run", "live_test")
    assert code == 0, err
    assert "delivered=7" in out
    assert "outcome=no-ftp-service" in out
    assert "outcome=non-member" in out
    assert "savings pages=357" in out


def test_run_stdout_reproducible(capsys):
    _, out1, _ = run_cli(capsys, "run", "live_test")
    _, out2, _ = run_cli(capsys, "run", "live_test")
    assert _strip_banner(out1) == _strip_banner(out2)


def test_run_seed_flag_overrides(capsys):
    _, out1, _ = run_cli(capsys, "run", "fig6_classroom")
    _, out2, _ = run_cli(capsys, "run", "fig6_classroom", "--seed", "9")
    assert "seed=42" in out1
    assert "seed=9" in out2


def test_seedless_scenario_runs_at_seed_zero(capsys, tmp_path, monkeypatch):
    """The seed comes from --seed or the scenario, never the environment."""
    data = _fixture_data("fig6_classroom")
    del data["seed"]
    path = tmp_path / "noseed.scn"
    path.write_text(json.dumps(data))
    monkeypatch.setenv("PID_SIM_SEED", "123")
    _, out, _ = run_cli(capsys, "run", str(path))
    assert "seed=0" in out


def test_run_writes_report_and_log(capsys, tmp_path):
    report_dir = tmp_path / "out"
    log_file = tmp_path / "events.log"
    code, out, _ = run_cli(capsys, "run", "live_test",
                           "--report", str(report_dir),
                           "--log", str(log_file))
    assert code == 0
    log_text = log_file.read_text()
    assert log_text == (report_dir / "log.txt").read_text()
    assert log_text.startswith("t=0 seq=0 ev=iteration_started")
    assert all(line.startswith("t=") for line in log_text.splitlines())
    report_text = (report_dir / "report.txt").read_text()
    assert "delivered=7" in report_text
    assert _strip_banner(out) == report_text


def test_run_renders_the_log_once_for_log_and_report(capsys, tmp_path, monkeypatch):
    calls = []
    render_log = SimWorld.render_log

    def counting(world):
        calls.append(world)
        return render_log(world)

    monkeypatch.setattr(SimWorld, "render_log", counting)
    log_file = tmp_path / "events.log"
    code, _, _ = run_cli(capsys, "run", "live_test", "--report", str(tmp_path / "out"),
                         "--log", str(log_file))
    assert code == 0
    assert len(calls) == 1
    assert log_file.read_bytes() == (tmp_path / "out" / "log.txt").read_bytes()


def test_run_log_is_byte_identical_across_runs(capsys, tmp_path):
    a, b = tmp_path / "a.log", tmp_path / "b.log"
    run_cli(capsys, "run", "live_test", "--log", str(a))
    run_cli(capsys, "run", "live_test", "--log", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_run_log_matches_frozen_golden_file(capsys, tmp_path):
    log = tmp_path / "run.log"
    run_cli(capsys, "run", "fig6_classroom", "--log", str(log))
    assert log.read_bytes() == (DATA / "fig6_classroom_seed42.log").read_bytes()


def test_fixture_name_with_scn_suffix_resolves(capsys):
    code, out, _ = run_cli(capsys, "run", "fig6_classroom.scn")
    assert code == 0
    assert "5 devices discovered" in out


def test_run_multiple_scenarios_writes_one_subdirectory_each(capsys, tmp_path):
    report_dir = tmp_path / "batch"
    code, out, _ = run_cli(capsys, "run", "fig6_classroom", "live_test",
                           "--report", str(report_dir))
    assert code == 0
    assert (report_dir / "fig6_classroom" / "log.txt").exists()
    assert (report_dir / "live_test" / "report.txt").exists()
    # outputs arrive in argument order
    assert out.index("fig6_classroom") < out.index("live_test")


@pytest.mark.parametrize("names", [("a/x.scn", "b/x.scn"),
                                   ("live_test", "live_test.scn")])
def test_report_refuses_scenarios_that_share_a_file_stem(capsys, tmp_path, names):
    """Both would write DIR/<stem>/, and the second would overwrite the first."""
    args = []
    for name in names:
        if "/" in name:
            (tmp_path / name).parent.mkdir()
            (tmp_path / name).write_text(
                Path(shipped_fixture_path("live_test")).read_text())
            name = str(tmp_path / name)
        args.append(name)
    code, out, err = run_cli(capsys, "run", *args, "--report", str(tmp_path / "out"))
    assert code == 1
    assert err.count("\n") == 1 and err.startswith("error: --report ")
    assert _strip_banner(out) == ""
    assert not (tmp_path / "out").exists()  # nothing ran


def _missing_file_scenario(tmp_path):
    data = _fixture_data("late_arrival")
    data["file"] = {"path": "nope.txt"}
    bad = tmp_path / "missing_file.scn"
    bad.write_text(json.dumps(data))
    return bad, f"file-not-found: {tmp_path / 'nope.txt'}"


def _deeply_nested_scenario(tmp_path):
    bad = tmp_path / "deep.scn"
    bad.write_text("[" * 200_000 + "]" * 200_000)
    return bad, f"{bad}: parse error: nesting too deep"


def _not_utf8_scenario(tmp_path):
    bad = tmp_path / "bad.scn"
    bad.write_bytes(b"\xff\xfe" + Path(shipped_fixture_path("live_test")).read_bytes())
    return bad, f"{bad}: parse error: not UTF-8 (byte 0)"


@pytest.mark.parametrize("first, make_bad", [
    ("late_arrival", _missing_file_scenario),
    ("live_test", _deeply_nested_scenario),
    ("live_test", _not_utf8_scenario),
], ids=["missing-file", "deep-nesting", "not-utf8"])
def test_bad_scenario_in_a_batch_keeps_the_good_reports(capsys, tmp_path, first,
                                                        make_bad):
    bad, error = make_bad(tmp_path)
    solo = [_strip_banner(run_cli(capsys, "run", name)[1])
            for name in (first, "fig6_classroom")]
    code, out, err = run_cli(capsys, "run", first, str(bad), "fig6_classroom")
    assert code == 1
    assert _strip_banner(out) == "".join(solo)
    assert err == f"error: {error}\n"


def test_deeply_nested_json_is_one_error_line(capsys, tmp_path):
    """``json.loads`` raises RecursionError on it, which once escaped as a
    traceback from both commands."""
    bad, error = _deeply_nested_scenario(tmp_path)
    for command in ("validate", "run"):
        code, _, err = run_cli(capsys, command, str(bad))
        assert (code, err) == (1, f"error: {error}\n")


def test_scenario_not_in_utf8_is_one_error_line(capsys, tmp_path):
    """The decode error once came out without the file's path."""
    bad, error = _not_utf8_scenario(tmp_path)
    for command in ("validate", "run"):
        code, _, err = run_cli(capsys, command, str(bad))
        assert (code, err) == (1, f"error: {error}\n")


def test_validate_ok(capsys):
    code, out, _ = run_cli(capsys, "validate", "live_test")
    assert code == 0
    assert "ok:" in out and "12 devices" not in out  # 13 including the client
    assert "13 devices" in out


def test_validate_rejects_bad_file(capsys, tmp_path):
    path = tmp_path / "bad.scn"
    path.write_text('{"schema_version": 1, "mode": "stepped", "bogus": true}')
    code, out, err = run_cli(capsys, "validate", str(path))
    assert code == 1
    assert "bogus" in err

    # Scenarios that once passed validate, then failed or misran under run:
    # both commands now reject them with the same single line.
    gaps = [
        (lambda d: d["devices"][1].update(arrival=-5), "scenario.devices[1]: "),
        (lambda d: d["devices"][1].update(arrival=1000, departure=1000),
         "scenario.devices[1]: "),
        (lambda d: d.update(radio={"inquiry_duration": "16000"}),
         "scenario.radio.inquiry_duration: "),
        (lambda d: d.update(radio={"link_rate_bps": True}),
         "scenario.radio.link_rate_bps: "),
        (lambda d: d.update(file={"path": "nope.txt"}), "file-not-found: "),
        (lambda d: d["devices"][0].update(powered=False),
         "scenario.local: initiator 001122334455 is powered off"),
    ]
    for mutate, where in gaps:
        data = _fixture_data("late_arrival")
        mutate(data)
        path.write_text(json.dumps(data))
        for command in ("validate", "run"):
            code, _, err = run_cli(capsys, command, str(path))
            assert code == 1
            assert err.count("\n") == 1
            assert err.startswith("error: " + where)
            assert "Traceback" not in err


@pytest.mark.parametrize("mutate,literal,error", [
    (lambda d: d.update(radio={"range_m": "@"}), "NaN",
     "scenario.radio.range_m: expected a finite number"),
    (lambda d: d.update(radio={"range_m": "@"}), "1e400",
     "scenario.radio.range_m: expected a finite number"),
    (lambda d: d.update(loss_probability="@"), "NaN",
     "scenario.loss_probability: expected a finite number"),
    (lambda d: d["devices"][1].update(position="@"), "[Infinity, 0]",
     "scenario.devices[1].position: expected [x, y] in meters"),
    (lambda d: d["devices"][1].update(position="@"), "[1%s, 0]" % ("0" * 400),
     "scenario.devices[1].position: expected [x, y] in meters"),
], ids=["range-nan", "range-1e400", "loss-nan", "position-inf",
        "position-huge-int"])
def test_non_finite_numbers_are_refused(capsys, tmp_path, mutate, literal,
                                        error):
    """A number no finite float holds is refused by ``validate`` and ``run``
    alike.  A NaN range or an infinite position once let ``run`` discover
    nobody, and an infinite range put every device in range."""
    data = _fixture_data("late_arrival")
    mutate(data)
    path = tmp_path / "non_finite.scn"
    path.write_text(json.dumps(data).replace('"@"', literal))
    for command in ("validate", "run"):
        code, _, err = run_cli(capsys, command, str(path))
        assert (code, err) == (1, f"error: {error}\n")


def test_string_not_encodable_as_utf8_is_refused(capsys, tmp_path):
    """A lone surrogate once passed ``validate`` and then made ``run
    --report`` fail while writing the log, without naming the field."""
    data = _fixture_data("late_arrival")
    data["devices"][1]["name"] = "\ud800"
    path = tmp_path / "surrogate.scn"
    path.write_text(json.dumps(data))
    for command in ("validate", "run"):
        code, _, err = run_cli(capsys, command, str(path), *(
            ("--report", str(tmp_path / "out")) if command == "run" else ()))
        assert (code, err) == (
            1, "error: scenario.devices[1].name: not encodable as UTF-8\n")


def test_boolean_position_is_refused(capsys, tmp_path):
    """``[true, 1]`` once parsed to (1.0, 1.0), while every other number
    field refused a boolean."""
    data = _fixture_data("late_arrival")
    data["devices"][1]["position"] = [True, 1]
    path = tmp_path / "bool_position.scn"
    path.write_text(json.dumps(data))
    for command in ("validate", "run"):
        code, _, err = run_cli(capsys, command, str(path))
        assert (code, err) == (
            1, "error: scenario.devices[1].position: expected [x, y] in meters\n")


@pytest.mark.parametrize("fixture,key", [
    ("fig6_classroom", "roster"), ("fig6_classroom", "step_target"),
    ("fig6_classroom", "usage"), ("live_test", "step_target"),
    ("live_test", "usage")])
def test_null_optional_block_reads_as_left_out(capsys, tmp_path, fixture, key):
    """An optional block set to null takes its default, as the README says."""
    data = _fixture_data(fixture)
    data.pop(key, None)
    path = tmp_path / "block.scn"
    outputs = []
    for variant in (data, dict(data, **{key: None})):
        path.write_text(json.dumps(variant))
        for command in ("validate", "run"):
            code, out, err = run_cli(capsys, command, str(path))
            assert code == 0, err
            outputs.append(out)
    assert outputs[:2] == outputs[2:]


def test_null_roster_is_still_required_for_proactive_mode(capsys, tmp_path):
    data = _fixture_data("live_test")
    data["roster"] = None
    path = tmp_path / "no_roster.scn"
    path.write_text(json.dumps(data))
    for command in ("validate", "run"):
        code, _, err = run_cli(capsys, command, str(path))
        assert code == 1
        assert err == "error: scenario.roster: required for proactive mode\n"


@pytest.mark.parametrize("flag,target", [("--report", "out"), ("--log", "x.log")])
def test_unwritable_output_is_one_error_line(capsys, tmp_path, flag, target):
    plain = tmp_path / "plain"
    plain.write_text("")  # a regular file, so nothing can be created under it
    code, _, err = run_cli(capsys, "run", "late_arrival", flag, str(plain / target))
    assert code == 1
    assert err.count("\n") == 1
    assert err.startswith("error: ") and "Not a directory" in err
    assert "Traceback" not in err


def _live_test_with_file_name(tmp_path, name):
    data = _fixture_data("live_test")
    data["file"]["name"] = name
    path = tmp_path / "named.scn"
    path.write_text(json.dumps(data))
    return str(path)


def test_validate_rejects_file_names_run_cannot_push(capsys, tmp_path):
    for name in ("h\u00e9.txt", "x" * 1100):
        path = _live_test_with_file_name(tmp_path, name)
        code, _, err = run_cli(capsys, "validate", path)
        assert code == 1
        assert err.count("\n") == 1
        assert err.startswith("error: scenario.file.name: ")
        assert "Traceback" not in err


def test_longest_valid_file_name_validates_and_runs(capsys, tmp_path):
    path = _live_test_with_file_name(tmp_path, "x" * 1010)
    code, _, err = run_cli(capsys, "validate", path)
    assert code == 0, err
    code, out, err = run_cli(capsys, "run", path)
    assert code == 0, err
    assert "delivered=7" in out


def test_run_missing_scenario_errors(capsys):
    code, _, err = run_cli(capsys, "run", "no_such_fixture")
    assert code == 1
    assert "no such scenario" in err


def test_metrics_course_form(capsys):
    code, out, _ = run_cli(capsys, "metrics", "--students", "18",
                           "--pages", "3", "--weeks", "17")
    assert code == 0
    assert "pages_per_week=54" in out
    assert "pages=918" in out


def test_metrics_campus_form(capsys):
    code, out, _ = run_cli(capsys, "metrics", "--campus", "800",
                           "--fraction", "1/4", "--pages-each", "1836")
    assert code == 0
    assert "pages=367200" in out
    assert "reams=708" in out
    assert "trees=44" in out


def test_metrics_pages_total_form(capsys):
    code, out, _ = run_cli(capsys, "metrics", "--pages-total", "8300")
    assert code == 0
    assert "reams=16" in out
    assert "trees=1" in out


@pytest.mark.parametrize("args, expected", [
    (("--students", "18", "--pages", "3", "--weeks", "17"),
     "assumptions students=18 pages_per_student_week=3 weeks=17\n"
     "pages_per_week=54\npages=918\nreams=2\ntrees=0\n"),
    (("--campus", "800", "--fraction", "1/4", "--pages-each", "1836"),
     "assumptions instructors=800 heavy_fraction=1/4 pages_each=1836\n"
     "pages=367200\nreams=708\ntrees=44\n"),
    (("--pages-total", "8300"), "pages=8300\nreams=16\ntrees=1\n"),
    # --pages-total wins over --campus, which wins over the course form.
    (("--pages-total", "10", "--campus", "4", "--pages-each", "1"),
     "pages=10\nreams=0\ntrees=0\n"),
    (("--campus", "4", "--fraction", "1/2", "--pages-each", "1",
      "--students", "1", "--pages", "1", "--weeks", "1"),
     "assumptions instructors=4 heavy_fraction=1/2 pages_each=1\n"
     "pages=2\nreams=0\ntrees=0\n"),
], ids=["course", "campus", "pages-total", "pages-total-first", "campus-first"])
def test_metrics_prints_exact_lines(capsys, args, expected):
    code, out, err = run_cli(capsys, "metrics", *args)
    assert (code, err) == (0, "")
    assert _strip_banner(out) == expected


def test_metrics_rejects_negative_pages_total(capsys):
    code, out, err = run_cli(capsys, "metrics", "--pages-total", "-5")
    assert (code, err) == (1, "error: --pages-total must be non-negative\n")
    assert _strip_banner(out) == ""


def test_metrics_zero_inputs(capsys):
    code, out, _ = run_cli(capsys, "metrics", "--students", "0",
                           "--pages", "3", "--weeks", "17")
    assert code == 0
    assert "pages=0" in out


def test_metrics_rejects_non_integral_campus(capsys):
    code, _, err = run_cli(capsys, "metrics", "--campus", "801",
                           "--fraction", "1/4", "--pages-each", "1836")
    assert code == 1
    assert "whole number" in err


def test_metrics_usage_error(capsys):
    code, _, err = run_cli(capsys, "metrics")
    assert code == 1
    assert "metrics needs" in err


def test_step_mode_gates_on_input(capsys, monkeypatch, tmp_path):
    fed = iter([""] * 20)
    monkeypatch.setattr("builtins.input", lambda prompt="": next(fed))
    code, out, _ = run_cli(capsys, "run", "fig6_classroom", "--step")
    assert code == 0
    assert "Step 8." in out


def _feed_enters(monkeypatch) -> list[str]:
    prompts: list[str] = []

    def fake_input(prompt=""):
        prompts.append(prompt)
        return ""

    monkeypatch.setattr("builtins.input", fake_input)
    return prompts


def test_step_matches_the_golden_and_writes_report_and_log(capsys, monkeypatch,
                                                           tmp_path):
    """The walkthrough prints the golden report live, minus its scenario=
    line, and --report/--log write the same files as an unattended run."""
    _feed_enters(monkeypatch)
    report = (DATA / "fig6_classroom_seed42.report").read_bytes()
    log = (DATA / "fig6_classroom_seed42.log").read_bytes()
    code, out, err = run_cli(capsys, "run", "fig6_classroom", "--step")
    assert (code, err) == (0, "")
    assert _strip_banner(out).encode() == report.split(b"\n", 1)[1]

    out_dir, log_file = tmp_path / "out", tmp_path / "x.log"
    code, out_with_files, err = run_cli(capsys, "run", "fig6_classroom", "--step",
                                        "--report", str(out_dir),
                                        "--log", str(log_file))
    assert (code, err) == (0, "")
    assert out_with_files == out
    assert (out_dir / "report.txt").read_bytes() == report
    assert (out_dir / "log.txt").read_bytes() == log
    assert log_file.read_bytes() == log


def test_step_with_several_scenarios_is_refused_before_any_runs(capsys, monkeypatch,
                                                                tmp_path):
    prompts = _feed_enters(monkeypatch)
    code, out, err = run_cli(capsys, "run", "fig6_classroom", "fig6_classroom",
                             "--step", "--report", str(tmp_path / "out"))
    assert (code, err) == (1, "error: --step runs exactly one scenario\n")
    assert _strip_banner(out) == ""
    assert prompts == []
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("enters", [0, 3, 8])
def test_step_input_ending_early_is_one_error_line(capsys, monkeypatch, tmp_path,
                                                   enters):
    """``input`` raises EOFError when stdin ends; that once escaped as a
    traceback.  Nothing is written for the unfinished walkthrough."""
    fed = iter([""] * enters)

    def fake_input(prompt=""):
        for reply in fed:
            return reply
        raise EOFError("EOF when reading a line")

    monkeypatch.setattr("builtins.input", fake_input)
    code, _, err = run_cli(capsys, "run", "fig6_classroom", "--step",
                           "--report", str(tmp_path / "out"),
                           "--log", str(tmp_path / "x.log"))
    assert (code, err) == (
        1, "error: --step: input ended before the walkthrough finished\n")
    assert os.listdir(tmp_path) == []


def test_log_with_several_scenarios_is_one_error_line(capsys, tmp_path):
    log = tmp_path / "x.log"
    code, out, err = run_cli(capsys, "run", "fig6_classroom", "late_arrival",
                             "--log", str(log), "--report", str(tmp_path / "r"))
    assert code == 1
    assert err.count("\n") == 1 and err.startswith("error: --log ")
    assert _strip_banner(out) == ""
    assert os.listdir(tmp_path) == []  # nothing ran


def test_step_flag_rejected_for_proactive(capsys):
    code, _, err = run_cli(capsys, "run", "live_test", "--step")
    assert code == 1
    assert "stepped-mode" in err


def test_exit_code_zero_with_undelivered_members(capsys, tmp_path):
    # an unreachable roster member must not fail the process
    data = _fixture_data("late_arrival")
    data["devices"] = [d for d in data["devices"]
                       if d["mac"] != "0019E3A20002"]
    path = tmp_path / "absent.scn"
    path.write_text(json.dumps(data))
    code, out, _ = run_cli(capsys, "run", str(path))
    assert code == 0
    assert "outcome=never-discovered" in out
